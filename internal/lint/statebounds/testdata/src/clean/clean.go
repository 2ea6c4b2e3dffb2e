// Package clean must produce no statebounds diagnostics: plain indices
// are fine, arithmetic goes through a declared bounds-checked accessor,
// and non-state slices are not the analyzer's business.
package clean

import "ecrpq/internal/invariant"

type table struct {
	trans   [][]int
	accept  []bool
	offsets []int32
}

// offsetAt is the sanctioned accessor for the packed (vertex, label) rows.
//
//ecrpq:bounds-checked
func (t *table) offsetAt(v, nsym, sym int) int32 {
	idx := v*nsym + sym
	invariant.Assert(idx >= 0 && idx < len(t.offsets), "offset index out of range")
	return t.offsets[idx]
}

func plainIndex(t *table, p int) []int {
	return t.trans[p]
}

func viaAccessor(t *table, v, nsym, sym int) int32 {
	return t.offsetAt(v, nsym, sym)
}

func otherSlices(xs []int, i, j int) int {
	// Arithmetic indexing of non-state slices is out of scope.
	return xs[i+j]
}

func popIdiom(t *table, stack []int) bool {
	// q is an element popped off a stack; the arithmetic computes the
	// stack position, not the state value, so q is not tainted.
	acc := false
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		acc = acc || t.accept[q]
	}
	return acc
}

// Package rowset gives fixed-width tuples of small non-negative integers
// dense ids. It is the one table behind every integer tuple the engine
// numbers: the product states of the Lemma 4.1 merge, the wide product
// states and destination tuples of the Lemma 4.2 kernels, and the join
// keys, relation index and walk memo of Proposition 2.3.
package rowset

import (
	"math/bits"
	"slices"
)

// Set is a set of rows of a fixed width, stored back to back in order of
// first sight: a row's id is its rank in that order. Each value takes at
// most the bits the set was made for. When width × bits ≤ 64 a row packs
// into its own key, and equal keys are equal rows; otherwise the key is an
// FNV-1a hash of the row and a hit is confirmed against the stored row.
// The slot table is open-addressed, at most half full, and doubles as it
// grows. Find, Row, Len and Bytes do not modify the set, so concurrent
// readers may share one. A Set is made by New or Reset; a nil *Set is
// empty to Bytes and Clear.
type Set struct {
	width, bits int
	packed      bool
	n           int
	rows        []int32  // row id is rows[id*width:(id+1)*width]
	keys        []uint64 // per slot: the key of its row
	ids         []int32  // per slot: 1 + its row's id, 0 = empty; a power of two long
	shift       int      // 64 − log2(len(ids)): a key's first slot is its top bits after the multiply
}

// New returns an empty set of rows of width values of at most bits bits.
func New(width, bits int) *Set {
	s := new(Set)
	s.Reset(width, bits, 0)
	return s
}

// Reset empties s for rows of width values of at most bits bits each, with
// room for hint rows before the table grows. It keeps s's storage.
func (s *Set) Reset(width, bits, hint int) {
	s.width, s.bits, s.packed = width, bits, width*bits <= 64
	s.n, s.rows = 0, s.rows[:0]
	s.table(16, 2*hint)
}

// Clear empties s, keeping room for as many rows as it held.
func (s *Set) Clear() {
	if s != nil {
		s.Reset(s.width, s.bits, s.n)
	}
}

// table makes the slot table empty and the first power of two from size
// up that holds want slots, reusing its storage.
func (s *Set) table(size, want int) {
	for size < want {
		size <<= 1
	}
	s.keys, s.ids = slices.Grow(s.keys[:0], size)[:size], slices.Grow(s.ids[:0], size)[:size]
	clear(s.ids)
	s.shift = 64 - bits.TrailingZeros(uint(size))
}

// Len returns the number of rows.
func (s *Set) Len() int { return s.n }

// Row returns the row with the given id, a read-only slice into the set.
func (s *Set) Row(id int32) []int32 {
	i := int(id) * s.width
	return s.rows[i : i+s.width : i+s.width]
}

// Bytes is the set's footprint.
func (s *Set) Bytes() int64 {
	if s == nil {
		return 0
	}
	return int64(4*cap(s.rows) + 8*cap(s.keys) + 4*cap(s.ids))
}

// Add returns row's id and whether this call gave it one, copying the row
// into the set on first sight. The table is at most half full, so a probe
// ends, at the row or at the empty slot where it belongs. Add and Find
// each write the probe out: a call per row cost the merge, the kernels,
// the join and the walk's memo several percent.
func (s *Set) Add(row []int32) (id int32, fresh bool) {
	if 2*(s.n+1) > len(s.ids) {
		s.grow()
	}
	k := s.key(row)
	i := int(k * 0x9E3779B97F4A7C15 >> (s.shift & 63))
	for s.ids[i] != 0 && (s.keys[i] != k || !s.packed && !slices.Equal(s.Row(s.ids[i]-1), row)) {
		i = (i + 1) & (len(s.ids) - 1)
	}
	if s.ids[i] == 0 {
		s.n++
		s.keys[i], s.ids[i] = k, int32(s.n)
		s.rows = append(s.rows, row...)
		return int32(s.n - 1), true
	}
	return s.ids[i] - 1, false
}

// Find returns row's id, or -1 if the set does not hold it.
func (s *Set) Find(row []int32) int32 {
	k := s.key(row)
	i := int(k * 0x9E3779B97F4A7C15 >> (s.shift & 63))
	for s.ids[i] != 0 && (s.keys[i] != k || !s.packed && !slices.Equal(s.Row(s.ids[i]-1), row)) {
		i = (i + 1) & (len(s.ids) - 1)
	}
	return s.ids[i] - 1
}

// FindKey is Find for a set whose rows pack into their keys, given the
// row's packing: its values, the first most significant, each in the bits
// the set was made for.
func (s *Set) FindKey(k uint64) int32 {
	i := int(k * 0x9E3779B97F4A7C15 >> (s.shift & 63))
	for s.ids[i] != 0 && s.keys[i] != k {
		i = (i + 1) & (len(s.ids) - 1)
	}
	return s.ids[i] - 1
}

func (s *Set) key(row []int32) uint64 {
	var k uint64
	if s.packed {
		for _, v := range row {
			k = k<<(s.bits&63) | uint64(uint32(v))
		}
		return k
	}
	k = 14695981039346656037
	for _, v := range row {
		k = (k ^ uint64(uint32(v))) * 1099511628211
	}
	return k
}

// grow re-slots the rows into a table twice the size, reading their keys
// off the stored rows, so that a table with room left from an earlier use
// grows in place without allocating.
func (s *Set) grow() {
	s.table(2*len(s.ids), 0)
	for id := int32(1); id <= int32(s.n); id++ {
		k := s.key(s.Row(id - 1))
		i := int(k * 0x9E3779B97F4A7C15 >> (s.shift & 63))
		for s.ids[i] != 0 {
			i = (i + 1) & (len(s.ids) - 1)
		}
		s.keys[i], s.ids[i] = k, id
	}
}

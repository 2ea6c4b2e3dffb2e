package query

import (
	"fmt"
	"strings"
	"sync"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/synchro"
)

// A relation atom's automaton depends on the alphabet and on the relation's
// text — a built-in's name and arity, or a regular expression — and on
// nothing else, so a parse does not build it again: BuiltinRelation and
// Builder.Lang look it up in one table keyed by (the alphabet's symbol names
// in order, the text). What the table hands out is immutable and shared by
// every query that names it, concurrently: it is built over the table's own
// copy of the alphabet (a caller's alphabet may grow later) and carries its
// fingerprint (synchro.Fingerprinted), so a canonical query text formats no
// automaton. Nothing in the repository writes to a relation after it is
// built; a shared one must not be written to either.
//
// The table is bounded by two constants and nothing else: it holds at most
// internEntries relations, and a relation whose automaton has more than
// internMaxTransitions transitions is built on every parse and never held.
// A full table starts over; what is in use comes back on its next parse.
const (
	internEntries        = 512
	internMaxTransitions = 8192
)

// internRelations is what the intern tests turn off to build every relation
// afresh, as a parse did before the table; nothing but a test assigns it.
var internRelations = true

var relations struct {
	mu sync.Mutex
	m  map[string]*synchro.Relation
}

// internRelation returns the relation of text over a's symbol names: the
// table's, or a new one made by build over a copy of a, which the table
// keeps when it is small enough. kind keeps built-in names and regular
// expressions apart.
func internRelation(a *alphabet.Alphabet, kind byte, text string, build func(*alphabet.Alphabet) (*synchro.Relation, error)) (*synchro.Relation, error) {
	if !internRelations {
		return build(a)
	}
	names := a.Names()
	var key strings.Builder
	for _, n := range names {
		key.WriteString(n) // symbol names hold no whitespace: the first newline ends the list
		key.WriteByte(' ')
	}
	key.WriteByte('\n')
	key.WriteByte(kind)
	key.WriteString(text)
	relations.mu.Lock()
	r, ok := relations.m[key.String()]
	relations.mu.Unlock()
	if ok {
		return r, nil
	}
	own, err := alphabet.New(names...)
	if err != nil {
		return nil, err
	}
	if r, err = build(own); err != nil {
		return nil, err
	}
	r = r.Fingerprinted()
	if _, transitions := r.Size(); transitions > internMaxTransitions {
		return r, nil
	}
	relations.mu.Lock()
	defer relations.mu.Unlock()
	if prev, ok := relations.m[key.String()]; ok {
		return prev, nil // built concurrently: every query shares the first
	}
	if relations.m == nil || len(relations.m) >= internEntries {
		relations.m = make(map[string]*synchro.Relation, internEntries)
	}
	relations.m[key.String()] = r
	return r, nil
}

// CheckInterned formats every relation the table holds again and reports
// how many it checked, and the first whose text no longer has the
// fingerprint it was interned with: a shared automaton was written to.
// Tests run it after the suites that evaluate shared relations.
func CheckInterned() (int, error) {
	relations.mu.Lock()
	defer relations.mu.Unlock()
	for key, r := range relations.m {
		// WithName drops the carried fingerprint: this one is computed from
		// the automaton as it is now.
		if now := r.WithName(r.Name()).Fingerprint(); now != r.Fingerprint() {
			return 0, fmt.Errorf("query: interned relation %q formats to fingerprint %s, interned as %s", key, now, r.Fingerprint())
		}
	}
	return len(relations.m), nil
}

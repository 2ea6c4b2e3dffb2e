package core

// Predicate pushdown for the Generic strategy: derive, from a component's
// relation automata alone, the set of labels a track's witness path can
// start with, and turn that into a restricted candidate domain for the
// track's source node variable. The analysis exploits the convolution
// normal form (padding is suffix-only — see expandTracks): in any accepted
// convolution a track's first letter appears in the FIRST joint letter
// unless the track's word is empty, and an empty word pads the track from
// position 0 on. So reading the start-state transitions of a relation NFA
// over-approximates the first letters of every track the relation spans.

import (
	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/invariant"
)

// trackFirstLabels computes, per component track, the set of labels an
// accepted witness path for that track may start with, or nil when the
// track is unrestricted. A track is unrestricted when some relation
// spanning it admits an empty word there (a start state is accepting, or a
// start-state transition pads the position); otherwise the sets from all
// spanning relations are intersected. The result is a sound
// over-approximation: every satisfying assignment's witness starts with a
// returned label.
//
//ecrpq:charged output is bounded by the query's relation automata (first-letter sets ⊆ alphabet), never database-sized
func trackFirstLabels(c *component) []map[alphabet.Symbol]bool {
	t := len(c.tracks)
	firsts := make([]map[alphabet.Symbol]bool, t)
	restricted := make([]bool, t)
	for ri, rel := range c.rels {
		// Only the start states' letters matter, so they are read off the
		// automaton itself: Explain asks without ever building the views.
		nfa := rel.RawNFA()
		arity := len(c.relTracks[ri])
		relFirst := make([]map[alphabet.Symbol]bool, arity)
		relOpen := make([]bool, arity) // position may start empty/padded
		for _, q := range nfa.StartStates() {
			if nfa.IsAccept(q) {
				// The all-empty tuple is accepted: every position may be
				// empty, so this relation restricts nothing.
				for j := range relOpen {
					relOpen[j] = true
				}
			}
			nfa.OutLetters(q, func(l string) {
				tuple, err := alphabet.TupleFromKey(l)
				invariant.NoError(err, "core: malformed relation letter")
				for j, sym := range tuple {
					if sym == alphabet.Pad {
						relOpen[j] = true
						continue
					}
					if relFirst[j] == nil {
						relFirst[j] = make(map[alphabet.Symbol]bool)
					}
					relFirst[j][sym] = true
				}
			})
		}
		for j, ct := range c.relTracks[ri] {
			if relOpen[j] {
				continue
			}
			if relFirst[j] == nil {
				// No start transition touches this position at all: the
				// relation accepts nothing, so the empty label set is the
				// (vacuously sound) restriction.
				relFirst[j] = make(map[alphabet.Symbol]bool)
			}
			if !restricted[ct] {
				restricted[ct] = true
				cp := make(map[alphabet.Symbol]bool, len(relFirst[j]))
				for s := range relFirst[j] {
					cp[s] = true
				}
				firsts[ct] = cp
				continue
			}
			for s := range firsts[ct] {
				if !relFirst[j][s] {
					delete(firsts[ct], s)
				}
			}
		}
	}
	for k := range firsts {
		if !restricted[k] {
			firsts[k] = nil
		}
	}
	return firsts
}

// PushdownCandidates computes restricted candidate domains for node
// variables of this plan against a concrete database: a variable that is
// the source of a first-label-restricted track only needs vertices with an
// out-edge carrying one of those labels. A variable sourcing several
// restricted tracks needs such an edge for each of them (one label set per
// track: the tracks leave the vertex along different edges, so the sets are
// not intersected). The label sets are read off each component's merged
// Lemma 4.1 view, whose start transitions are the joint first letters all
// of the component's relations agree on: eq over languages a… and b… has
// none, so no vertex qualifies, while hamming<=1 over the same languages
// keeps {a} and {b}. The returned map (variable → ascending vertex ids)
// feeds PlanHints.Candidates; variables absent from it are unrestricted.
// The result is db-generation-specific — do not cache it across
// re-registrations.
//
//ecrpq:charged one O(|V|) pass per restricted variable; the candidate slices are request-scoped and bounded by |V|, accounted by the query reservation
func (p *Prepared) PushdownCandidates(db *graphdb.DB) map[string][]int {
	restrict := make(map[string][]map[alphabet.Symbol]bool)
	for ci := range p.merged {
		c := &p.merged[ci]
		for k, labels := range trackFirstLabels(c) {
			if labels != nil {
				v := c.tracks[k].srcVar
				restrict[v] = append(restrict[v], labels)
			}
		}
	}
	if len(restrict) == 0 {
		return nil
	}
	out := make(map[string][]int, len(restrict))
	for v, sets := range restrict {
		cand := []int{}
		for d := 0; d < db.NumVertices(); d++ {
			if hasOutEdgeInEach(db, d, sets) {
				cand = append(cand, d)
			}
		}
		out[v] = cand
	}
	return out
}

// hasOutEdgeInEach reports whether vertex d has, for every label set, an
// out-edge labelled from it.
func hasOutEdgeInEach(db *graphdb.DB, d int, sets []map[alphabet.Symbol]bool) bool {
	for _, labels := range sets {
		found := false
		for _, e := range db.Out(d) {
			if labels[e.Label] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Package core implements the paper's primary contribution: evaluation of
// ECRPQ queries over graph databases, with the complexity-aware strategies
// the characterization theorems describe.
//
// Two evaluation strategies join the node variables with one atom per
// relation component, and differ in how that atom is read:
//
//   - Generic: the algorithm behind the PSPACE upper bound (Proposition 2.2)
//     and the XNL membership argument (Lemma 4.2) — guess the atom's node
//     variables and decide each guess by a search of the product of the
//     component's relations merged into one automaton (Lemma 4.1) with one
//     database pointer per path variable.
//
//   - Reduction: the algorithm behind the NP and PTIME upper bounds
//     (Lemma 4.3) — merge each component's relations (Lemma 4.1), and read
//     the atom off the induced 2t-ary endpoint relation R' over database
//     vertices, lazily or materialized for the tree-decomposition dynamic
//     program (Proposition 2.3).
//
// Both return full witnesses (node assignment plus concrete paths).
package core

import (
	"context"
	"fmt"
	"slices"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// track identifies one path variable of a component: its name and endpoint
// node variables.
type track struct {
	pathVar string
	srcVar  string
	dstVar  string
}

// component is a "semantic component" of the query: a maximal set of path
// variables connected through non-universal relation atoms. Universal atoms
// impose no constraint and so do not connect path variables semantically
// (they still count for the structural measures; see internal/twolevel).
// Every path variable is a track of exactly one component: one that no
// non-universal atom mentions is the single track of a component whose
// relation is Σ* (the paper's normal form, §2), so plain reachability is
// evaluated, swept, streamed and costed like any other component.
type component struct {
	tracks    []track
	rels      []*synchro.Relation // non-universal; explicit NFAs
	relTracks [][]int             // relation → component-track indices
	// nfa is the table of the Lemma 4.1 merge, the one automaton every
	// product kernel searches, as synchro.Merge built it: integer states and
	// symbol-tuple letters, nothing to decode. Only mergedViews sets it, on
	// the plan's merged views, which carry no relation besides; read-only,
	// shared by every kernel and every goroutine. decompose's components
	// leave it nil.
	nfa *synchro.Table
	// nodeVars are the distinct node variables: track sources first, then
	// the variables that are only destinations, each in track order. The
	// Generic walk guesses them in this order, so a component's
	// destinations vary under fixed sources whatever the variables are
	// called, which is what lets one product traversal answer for all of
	// them (fastProduct.reach).
	nodeVars []string
	// ends holds, per endpoint of the atom — 2k the source of track k, 2k+1
	// its destination — the index of its variable in nodeVars.
	ends []int
	// pat is the atom's endpoint pattern, the one both readers of R' take
	// their sources from. Only mergedViews sets it, beside nfa.
	pat atomPattern
	// plain marks a Σ* component decompose made for a path variable the user
	// left unconstrained. It is read only to report — Stats.Components and
	// Stats.FreeTracks, Plan.FreeTracks — and by nothing that evaluates,
	// plans or costs.
	plain bool
}

// endpointVars lists the tracks' distinct node variables, sources first,
// and the index in that list of each endpoint's variable (component.ends).
//
//ecrpq:charged query-sized: at most two variables per track
func endpointVars(tracks []track) (vars []string, ends []int) {
	for _, t := range tracks {
		if !slices.Contains(vars, t.srcVar) {
			vars = append(vars, t.srcVar)
		}
	}
	for _, t := range tracks {
		if !slices.Contains(vars, t.dstVar) {
			vars = append(vars, t.dstVar)
		}
	}
	for _, t := range tracks {
		ends = append(ends, slices.Index(vars, t.srcVar), slices.Index(vars, t.dstVar))
	}
	return vars, ends
}

// atomPattern is the endpoint pattern of a component's atom R'(x1, y1, …,
// xt, yt) over the query's own node variables (Lemma 4.3). R' holds only
// the rows whose repeated variables agree: its source tuples are a base-V
// numeral over the distinct source variables, and a destination is either
// free or equal to a source or to an earlier destination.
type atomPattern struct {
	// digits are the distinct source variables (indices in nodeVars), most
	// significant first: the last track's variable leads, so the numeral's
	// order is the order of R' under sweepColumnOrder.
	digits []int
	// src holds, per track, the place in digits of its source's variable.
	src []int
	// dst holds, per track, the endpoint its destination must equal — 2j
	// the source of track j, 2j+1 the destination of an earlier track j —
	// or -1 when it is free.
	dst []int
}

// newAtomPattern reads the pattern off component.ends.
//
//ecrpq:charged query-sized: one entry per distinct source variable and three per track
func newAtomPattern(ends []int) atomPattern {
	t := len(ends) / 2
	p := atomPattern{src: make([]int, t), dst: make([]int, t)}
	for k := t - 1; k >= 0; k-- {
		if !slices.Contains(p.digits, ends[2*k]) {
			p.digits = append(p.digits, ends[2*k])
		}
	}
	for k := 0; k < t; k++ {
		p.src[k] = slices.Index(p.digits, ends[2*k])
		// An earlier destination is checked once per destination tuple, a
		// source once per lane: the former wins where both apply.
		p.dst[k] = -1
		for e := 1; e < 2*k && p.dst[k] < 0; e += 2 {
			if ends[e] == ends[2*k+1] {
				p.dst[k] = e
			}
		}
		for e := 0; e < len(ends) && p.dst[k] < 0; e += 2 {
			if ends[e] == ends[2*k+1] {
				p.dst[k] = e
			}
		}
	}
	return p
}

// keeps reports whether a row of the atom, (u1, v1, …, ut, vt), satisfies
// its destination equalities.
func (p *atomPattern) keeps(row []int) bool {
	for k, e := range p.dst {
		if e >= 0 && row[2*k+1] != row[e] {
			return false
		}
	}
	return true
}

// plainTracks counts the components decompose made for unconstrained path
// variables, which the reports call free tracks.
func plainTracks(comps []component) int {
	n := 0
	for i := range comps {
		if comps[i].plain {
			n++
		}
	}
	return n
}

// decompose splits a validated query into its components: the semantic
// ones in order of their first path variable, then one Σ* component per
// path variable in no non-universal atom, in path-variable order. The
// query need not be normalized (universal atoms are skipped either way).
//
//ecrpq:charged all allocation is query-sized (components, tracks, union-find), independent of the database
func decompose(q *query.Query) ([]component, error) {
	paths := q.PathVars()
	pathIdx := make(map[string]int, len(paths))
	for i, p := range paths {
		pathIdx[p] = i
	}
	uf := newUnionFind(len(paths))
	var nonUniversal []query.RelAtom
	for _, ra := range q.Rels {
		if ra.Rel.IsUniversal() {
			continue
		}
		nonUniversal = append(nonUniversal, ra)
		first := pathIdx[ra.Paths[0]]
		for _, p := range ra.Paths[1:] {
			uf.union(first, pathIdx[p])
		}
	}
	compOf := make(map[int]*component)
	covered := make(map[string]bool)
	for _, ra := range nonUniversal {
		for _, p := range ra.Paths {
			covered[p] = true
		}
	}
	var order []int
	trackPos := make(map[string]int) // path var → index within its component
	for i, p := range paths {
		if !covered[p] {
			continue
		}
		r := uf.find(i)
		c, ok := compOf[r]
		if !ok {
			c = &component{}
			compOf[r] = c
			order = append(order, r)
		}
		atom, _ := q.ReachAtomFor(p)
		trackPos[p] = len(c.tracks)
		c.tracks = append(c.tracks, track{pathVar: p, srcVar: atom.Src, dstVar: atom.Dst})
	}
	for _, ra := range nonUniversal {
		r := uf.find(pathIdx[ra.Paths[0]])
		c := compOf[r]
		idxs := make([]int, len(ra.Paths))
		for i, p := range ra.Paths {
			idxs[i] = trackPos[p]
		}
		c.rels = append(c.rels, ra.Rel)
		c.relTracks = append(c.relTracks, idxs)
	}
	var comps []component
	for _, r := range order {
		c := compOf[r]
		if t := len(c.tracks); t > 64 { // a product state's set of finished tracks is one uint64
			return nil, fmt.Errorf("core: component with %d tracks exceeds the 64-track limit", t)
		}
		c.nodeVars, c.ends = endpointVars(c.tracks)
		comps = append(comps, *c)
	}
	// Coming last and in path-variable order keeps the Lemma 4.3 query's
	// atom order, and with it the enumeration order /v1/enumerate cursors
	// offset into.
	var sigmaStar *synchro.Relation
	for _, p := range paths {
		if covered[p] {
			continue
		}
		if sigmaStar == nil {
			nfa, err := synchro.Universal(q.Alphabet(), 1).NFA()
			if err == nil {
				sigmaStar, err = synchro.FromNFA(q.Alphabet(), 1, nfa)
			}
			if err != nil {
				return nil, err
			}
		}
		atom, _ := q.ReachAtomFor(p)
		c := component{
			tracks:    []track{{pathVar: p, srcVar: atom.Src, dstVar: atom.Dst}},
			rels:      []*synchro.Relation{sigmaStar},
			relTracks: [][]int{{0}},
			plain:     true,
		}
		c.nodeVars, c.ends = endpointVars(c.tracks)
		comps = append(comps, c)
	}
	return comps, nil
}

// unionFind is a union-find over 0 … n-1 with path halving.
type unionFind []int

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = i
	}
	return u
}

func (u unionFind) find(x int) int {
	//ecrpq:bounded path halving: every step strictly shortens the chain to the root
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

// union joins the sets of x and y under y's root.
func (u unionFind) union(x, y int) { u[u.find(x)] = u.find(y) }

// mergeComponent applies Lemma 4.1: it joins the component's relations into
// the table of a single relation over the component's tracks, so the
// component behaves as one hyperedge. grow is synchro.Merge's.
func mergeComponent(ctx context.Context, a *alphabet.Alphabet, c *component, grow func(states int) error) (*synchro.Table, error) {
	return synchro.Merge(ctx, a, len(c.tracks), c.rels, c.relTracks, grow)
}

// componentReachSet computes, for fixed sources, every tuple of destination
// vertices reachable by satisfying paths, and appends them to buf back to
// back (one vertex per track each). fp is reused across calls, e.g. over a
// streamed source sweep. Tuples come out in lexicographic order, not in the
// order the search met them: it is the order sweepComponent emits, which
// streaming enumeration (the /v1/enumerate cursor) is pinned to.
func componentReachSet(ctx context.Context, fp *fastProduct, srcs []int, maxStates int, buf []int) ([]int, error) {
	if err := fp.Run(ctx, srcs, maxStates); err != nil {
		return nil, err
	}
	fp.order = fp.accepted.appendKeys(fp.order[:0])
	fp.sortDests(fp.order)
	for _, key := range fp.order {
		n := len(buf)
		buf = append(buf, srcs...) // t slots, overwritten below
		unpackDest(&fp.productStep, key, buf[n:])
	}
	return buf, nil
}

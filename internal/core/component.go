// Package core implements the paper's primary contribution: evaluation of
// ECRPQ queries over graph databases, with the complexity-aware strategies
// the characterization theorems describe.
//
// Two evaluation strategies are provided:
//
//   - Generic: the algorithm behind the PSPACE upper bound (Proposition 2.2)
//     and the XNL membership argument (Lemma 4.2) — backtrack over node
//     variables and, per relation component, search the synchronized product
//     of the component's relation NFAs with one database pointer per path
//     variable.
//
//   - Reduction: the algorithm behind the NP and PTIME upper bounds
//     (Lemma 4.3) — merge each component's relations (Lemma 4.1), materialize
//     the induced 2t-ary endpoint relations R' over database vertices, and
//     evaluate the resulting conjunctive query with the tree-decomposition
//     dynamic program (Proposition 2.3).
//
// Both return full witnesses (node assignment plus concrete paths).
package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/invariant"
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
	// nfas are the relations' decoded transition tables, built once for a
	// plan's components (prepare, mergedViews) so that no kernel over them
	// decodes them again; read-only, shared by every kernel and every
	// goroutine. Explain and Satisfiable read no transitions and leave it nil.
	nfas []*nfaView
	// nodeVars are the distinct node variables: track sources first, then
	// the variables that are only destinations, each in track order. The
	// generic strategy assigns them in this order, so a component's
	// destinations vary under fixed sources whatever the variables are
	// called, which is what lets one product traversal answer for all of
	// them (componentSearch).
	nodeVars []string
	// plain marks a Σ* component decompose made for a path variable the user
	// left unconstrained. It is read only to report — Stats.Components and
	// Stats.FreeTracks, Plan.FreeTracks — and by nothing that evaluates,
	// plans or costs.
	plain bool
}

// endpointVars lists the tracks' distinct node variables, sources first.
//
//ecrpq:charged query-sized: at most two variables per track
func endpointVars(tracks []track) []string {
	var vars []string
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
	return vars
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
	parent := make([]int, len(paths))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		//ecrpq:bounded union-find with path halving: every step strictly shortens the chain to the root
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var nonUniversal []query.RelAtom
	for _, ra := range q.Rels {
		if ra.Rel.IsUniversal() {
			continue
		}
		if ra.Rel.RawNFA() == nil {
			return nil, fmt.Errorf("core: relation %q has no automaton", ra.Rel.Name())
		}
		nonUniversal = append(nonUniversal, ra)
		first := pathIdx[ra.Paths[0]]
		for _, p := range ra.Paths[1:] {
			a, b := find(first), find(pathIdx[p])
			if a != b {
				parent[a] = b
			}
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
		r := find(i)
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
		r := find(pathIdx[ra.Paths[0]])
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
		c.nodeVars = endpointVars(c.tracks)
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
		tracks := []track{{pathVar: p, srcVar: atom.Src, dstVar: atom.Dst}}
		comps = append(comps, component{
			tracks:    tracks,
			rels:      []*synchro.Relation{sigmaStar},
			relTracks: [][]int{{0}},
			nodeVars:  endpointVars(tracks),
			plain:     true,
		})
	}
	return comps, nil
}

// mergeComponent applies Lemma 4.1: it joins the component's relations into
// a single relation over the component's tracks, so the component behaves as
// one hyperedge.
func mergeComponent(a *alphabet.Alphabet, c *component) (*synchro.Relation, error) {
	return synchro.Join(a, len(c.tracks), c.rels, c.relTracks)
}

// acceptState reports whether every relation automaton accepts in its
// component of relStates.
func acceptState(nfas []*nfaView, relStates []int) bool {
	for i, v := range nfas {
		if !v.accept[relStates[i]] {
			return false
		}
	}
	return true
}

// nfaView caches a relation NFA's decoded transitions for fast iteration.
type nfaView struct {
	starts []int
	accept []bool
	trans  [][]decodedTrans
}

type decodedTrans struct {
	tuple alphabet.Tuple
	to    int
}

func newNFAView(r *synchro.Relation) *nfaView {
	nfa := r.RawNFA()
	n := nfa.NumStates()
	v := &nfaView{starts: nfa.StartStates(), accept: make([]bool, n), trans: make([][]decodedTrans, n)}
	for q := 0; q < n; q++ {
		v.accept[q] = nfa.IsAccept(q)
	}
	nfa.Transitions(func(p int, l string, q int) {
		t, err := alphabet.TupleFromKey(l)
		invariant.NoError(err, "core: malformed relation letter")
		v.trans[p] = append(v.trans[p], decodedTrans{tuple: t, to: q})
	})
	// Transitions come in map order. Sorting them makes the order in which a
	// search meets states, and so the state budget under which it finds a
	// given destination, a function of the instance alone.
	for _, trs := range v.trans {
		slices.SortFunc(trs, func(a, b decodedTrans) int {
			return cmp.Or(slices.Compare(a.tuple, b.tuple), cmp.Compare(a.to, b.to))
		})
	}
	return v
}

func nfaViews(rels []*synchro.Relation) []*nfaView {
	views := make([]*nfaView, len(rels))
	for i, r := range rels {
		views[i] = newNFAView(r)
	}
	return views
}

// componentSearch is one component's Lemma 4.2 product search for the
// length of one evaluation: the kernel is built on the first check, reused
// by every later one, and released once by the owner.
type componentSearch struct {
	db        *graphdb.DB
	c         *component
	maxStates int
	paths     bool // a witness will be asked of a check that succeeds: checks record

	kern *fastProduct // nil until the first check or witness
}

func (s *componentSearch) kernel() *fastProduct {
	if s.kern == nil {
		s.kern = newFastProduct(s.db, s.c)
		s.kern.paths = s.paths
	}
	return s.kern
}

// check decides whether, with the given per-track endpoints, the
// component's relational constraints can be satisfied by concrete paths.
func (s *componentSearch) check(ctx context.Context, srcs, dsts []int) (bool, error) {
	return s.kernel().reach(ctx, srcs, dsts, s.maxStates)
}

// witness is check with the paths: one database path per track.
func (s *componentSearch) witness(ctx context.Context, srcs, dsts []int) ([]graphdb.Path, bool, error) {
	return s.kernel().witness(ctx, srcs, dsts, s.maxStates)
}

// work reports the traversals begun and the product states expanded so far.
func (s *componentSearch) work() (traversals, states int) {
	if s.kern == nil {
		return 0, 0
	}
	return s.kern.traversals, s.kern.expanded
}

func (s *componentSearch) release() { s.kern.releaseMem() }

// checkComponent is a one-off componentSearch.witness: the paths for one
// pair of endpoint tuples, on a kernel of its own.
func checkComponent(ctx context.Context, db *graphdb.DB, c *component, srcs, dsts []int, maxStates int) ([]graphdb.Path, bool, error) {
	s := componentSearch{db: db, c: c, maxStates: maxStates}
	defer s.release()
	return s.witness(ctx, srcs, dsts)
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
	fp.sortDests(fp.dests)
	for _, key := range fp.dests {
		n := len(buf)
		buf = append(buf, srcs...) // t slots, overwritten below
		unpackDest(&fp.productStep, key, buf[n:])
	}
	return buf, nil
}

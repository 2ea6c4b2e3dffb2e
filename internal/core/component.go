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
	"ecrpq/internal/govern"
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
type component struct {
	tracks    []track
	rels      []*synchro.Relation // non-universal; explicit NFAs
	relTracks [][]int             // relation → component-track indices
	// nodeVars are the distinct node variables: track sources first, then
	// the variables that are only destinations, each in track order. The
	// generic strategy assigns them in this order, so a component's
	// destinations vary under fixed sources whatever the variables are
	// called, which is what lets one product traversal answer for all of
	// them (componentSearch).
	nodeVars []string
}

// freeTrack is a path variable in no non-universal relation atom: its only
// constraint is plain reachability.
type freeTrack struct {
	pathVar string
	srcVar  string
	dstVar  string
}

// decompose splits a validated query into semantic components and free
// tracks. The query need not be normalized (universal atoms are skipped
// either way).
//
//ecrpq:charged all allocation is query-sized (components, tracks, union-find), independent of the database
func decompose(q *query.Query) ([]component, []freeTrack, error) {
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
			return nil, nil, fmt.Errorf("core: relation %q has no automaton", ra.Rel.Name())
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
		seen := make(map[string]bool)
		add := func(v string) {
			if !seen[v] {
				seen[v] = true
				c.nodeVars = append(c.nodeVars, v)
			}
		}
		for _, t := range c.tracks {
			add(t.srcVar)
		}
		for _, t := range c.tracks {
			add(t.dstVar)
		}
		comps = append(comps, *c)
	}
	var frees []freeTrack
	for _, p := range paths {
		if covered[p] {
			continue
		}
		atom, _ := q.ReachAtomFor(p)
		frees = append(frees, freeTrack{pathVar: p, srcVar: atom.Src, dstVar: atom.Dst})
	}
	return comps, frees, nil
}

// mergeComponent applies Lemma 4.1: it joins the component's relations into
// a single relation over the component's tracks, so the component behaves as
// one hyperedge.
func mergeComponent(a *alphabet.Alphabet, c *component) (*synchro.Relation, error) {
	return synchro.Join(a, len(c.tracks), c.rels, c.relTracks)
}

// productState is a search state of the component product: one NFA state per
// relation, one database vertex per track, and the set of finished tracks.
type productState struct {
	relStates []int
	verts     []int
	done      uint64
}

func (s productState) key() string {
	buf := make([]byte, 0, 4*(len(s.relStates)+len(s.verts))+8)
	put := func(v int) {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	for _, q := range s.relStates {
		put(q)
	}
	for _, v := range s.verts {
		put(v)
	}
	put(int(s.done))
	put(int(s.done >> 32))
	return string(buf)
}

// stepRecord remembers how a state was reached, for witness reconstruction.
type stepRecord struct {
	prev   int
	letter alphabet.Tuple
	moved  []int // new vertex per track (same length as tracks); -1 = unchanged
}

// productSearch explores the synchronized product of the component's
// relation NFAs with the database, starting every track at srcs[i]. It calls
// accept on each accepting product state (return true to stop the search and
// make productSearch return that state's index). maxStates caps exploration
// (0 = unlimited); exceeding it returns an error.
//
// This is exactly the nondeterministic procedure of Lemma 4.2, determinized
// by breadth-first search: guess a joint convolution letter consistent with
// every relation NFA (components that have exhausted their words stall), and
// advance one database pointer per non-padded track along a matching edge.
// ctx is polled every cancelCheckInterval states.
func productSearch(
	ctx context.Context,
	db *graphdb.DB,
	c *component,
	srcs []int,
	accept func(st productState) bool,
	maxStates int,
) (found int, states []productState, parents []stepRecord, err error) {
	t := len(c.tracks)
	if t > 64 {
		return -1, nil, nil, fmt.Errorf("core: component with %d tracks exceeds the 64-track limit", t)
	}
	// Byte accounting: each recorded state costs a productState, a
	// stepRecord, and an index entry; the whole table is released when the
	// search returns (witness reconstruction from the returned slices is
	// short-lived, so the transient under-count is acceptable).
	mem := govern.MeterFrom(ctx)
	defer mem.Close()
	perState := int64(192 + 24*t + 16*len(c.rels))
	chargedStates := 0
	nfas := make([]*nfaView, len(c.rels))
	for i, r := range c.rels {
		nfas[i] = newNFAView(r)
	}
	idx := make(map[string]int)
	push := func(st productState, rec stepRecord) int {
		k := st.key()
		if i, ok := idx[k]; ok {
			return i
		}
		i := len(states)
		idx[k] = i
		states = append(states, st)
		parents = append(parents, rec)
		return i
	}
	// Start states: all combinations of relation start states.
	var startCombos [][]int
	var build func(i int, cur []int)
	build = func(i int, cur []int) {
		if i == len(nfas) {
			startCombos = append(startCombos, append([]int(nil), cur...))
			return
		}
		for _, q := range nfas[i].starts {
			build(i+1, append(cur, q))
		}
	}
	build(0, nil)
	for _, combo := range startCombos {
		st := productState{relStates: combo, verts: append([]int(nil), srcs...), done: 0}
		push(st, stepRecord{prev: -1})
	}
	const unset = alphabet.Unset
	for qi := 0; qi < len(states); qi++ {
		if qi%cancelCheckInterval == 0 {
			if err := pollSearch(ctx); err != nil {
				return -1, nil, nil, err
			}
			if mem != nil && len(states) > chargedStates {
				if err := mem.Grow(int64(len(states)-chargedStates) * perState); err != nil {
					return -1, nil, nil, fmt.Errorf("core: product search: %w", err)
				}
				chargedStates = len(states)
			}
		}
		st := states[qi]
		if acceptState(nfas, st.relStates) && accept(st) {
			return qi, states, parents, nil
		}
		if maxStates > 0 && len(states) > maxStates {
			return -1, nil, nil, fmt.Errorf("core: product exceeded the state budget of %d", maxStates)
		}
		joint := make([]alphabet.Symbol, t)
		for i := range joint {
			joint[i] = unset
		}
		nextRel := make([]int, len(nfas))
		var overRels func(i int)
		overRels = func(i int) {
			if i == len(nfas) {
				expandTracks(db, c, st, joint, nextRel, qi, push)
				return
			}
			nfas[i].transitions(st.relStates[i], func(tp alphabet.Tuple, to int) {
				var touched []int
				ok := true
				for k, s := range tp {
					mt := c.relTracks[i][k]
					if joint[mt] == unset {
						joint[mt] = s
						touched = append(touched, mt)
					} else if joint[mt] != s {
						ok = false
						break
					}
				}
				if ok {
					nextRel[i] = to
					overRels(i + 1)
				}
				for _, mt := range touched {
					joint[mt] = unset
				}
			})
			// Stall: relation i has finished its tracks (all pad onward).
			var touched []int
			ok := true
			for _, mt := range c.relTracks[i] {
				if joint[mt] == unset {
					joint[mt] = alphabet.Pad
					touched = append(touched, mt)
				} else if joint[mt] != alphabet.Pad {
					ok = false
					break
				}
			}
			if ok {
				nextRel[i] = st.relStates[i]
				overRels(i + 1)
			}
			for _, mt := range touched {
				joint[mt] = unset
			}
		}
		overRels(0)
	}
	return -1, states, parents, nil
}

// expandTracks advances database pointers for a fully-determined joint
// letter: each non-pad track must move along a matching edge (all edge
// choices are explored); pad tracks must already be consistent with the done
// mask and keep their vertex.
func expandTracks(
	db *graphdb.DB,
	c *component,
	st productState,
	joint []alphabet.Symbol,
	nextRel []int,
	from int,
	push func(productState, stepRecord) int,
) {
	t := len(c.tracks)
	// Validity: all-pad letters do not exist in convolutions; done tracks
	// must stay padded.
	allPad := true
	for i := 0; i < t; i++ {
		if joint[i] != alphabet.Pad {
			allPad = false
			if st.done&(1<<uint(i)) != 0 {
				return // resumed after padding: invalid convolution
			}
		}
	}
	if allPad {
		return
	}
	newDone := st.done
	for i := 0; i < t; i++ {
		if joint[i] == alphabet.Pad {
			newDone |= 1 << uint(i)
		}
	}
	verts := make([]int, t)
	copy(verts, st.verts)
	moved := make([]int, t)
	for i := range moved {
		moved[i] = -1
	}
	var overTracks func(i int)
	overTracks = func(i int) {
		if i == t {
			nst := productState{
				relStates: append([]int(nil), nextRel...),
				verts:     append([]int(nil), verts...),
				done:      newDone,
			}
			push(nst, stepRecord{
				prev:   from,
				letter: append(alphabet.Tuple(nil), joint...),
				moved:  append([]int(nil), moved...),
			})
			return
		}
		if joint[i] == alphabet.Pad {
			overTracks(i + 1)
			return
		}
		cur := st.verts[i]
		for _, e := range db.Out(cur) {
			if e.Label != joint[i] {
				continue
			}
			verts[i] = e.To
			moved[i] = e.To
			overTracks(i + 1)
		}
		verts[i] = cur
		moved[i] = -1
	}
	overTracks(0)
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

func (v *nfaView) transitions(q int, f func(t alphabet.Tuple, to int)) {
	for _, tr := range v.trans[q] {
		f(tr.tuple, tr.to)
	}
}

// reconstructPaths rebuilds one database path per track from the parent
// chain ending at state index goal.
//
//ecrpq:charged output-sized: the states/parents arrays it walks were charged by the product search that built them
func reconstructPaths(c *component, srcs []int, states []productState, parents []stepRecord, goal int) []graphdb.Path {
	t := len(c.tracks)
	type step struct {
		letter alphabet.Tuple
		moved  []int
	}
	var chain []step
	for i := goal; parents[i].prev >= 0; i = parents[i].prev {
		chain = append(chain, step{parents[i].letter, parents[i].moved})
	}
	paths := make([]graphdb.Path, t)
	for i := range paths {
		paths[i] = graphdb.Path{Start: srcs[i]}
	}
	for k := len(chain) - 1; k >= 0; k-- {
		s := chain[k]
		for i := 0; i < t; i++ {
			if s.moved[i] >= 0 {
				paths[i].Edges = append(paths[i].Edges, graphdb.Edge{Label: s.letter[i], To: s.moved[i]})
			}
		}
	}
	return paths
}

// componentSearch is one component's Lemma 4.2 product search for the
// length of one evaluation: the packed kernel is built on the first check
// and reused by every later one, and released once by the owner. A
// component whose state does not pack into 63 bits takes the string-keyed
// productSearch instead, one search per call.
type componentSearch struct {
	db        *graphdb.DB
	c         *component
	maxStates int

	fp        *fastProduct // nil before the first call, or when the state does not pack
	built     bool
	fallbacks int // productSearch calls, each one traversal
}

func (s *componentSearch) kernel() *fastProduct {
	if !s.built {
		s.built = true
		s.fp = newFastProduct(s.db, s.c)
	}
	return s.fp
}

// matchDsts is the productSearch acceptance test for one destination tuple.
func matchDsts(dsts []int) func(productState) bool {
	return func(st productState) bool { return slices.Equal(st.verts, dsts) }
}

// check decides whether, with the given per-track endpoints, the
// component's relational constraints can be satisfied by concrete paths.
func (s *componentSearch) check(ctx context.Context, srcs, dsts []int) (bool, error) {
	if fp := s.kernel(); fp != nil {
		return fp.reach(ctx, srcs, dsts, s.maxStates)
	}
	s.fallbacks++
	goal, _, _, err := productSearch(ctx, s.db, s.c, srcs, matchDsts(dsts), s.maxStates)
	return goal >= 0, err
}

// witness is check with the paths: one database path per track.
func (s *componentSearch) witness(ctx context.Context, srcs, dsts []int) ([]graphdb.Path, bool, error) {
	if fp := s.kernel(); fp != nil {
		return fp.witness(ctx, srcs, dsts, s.maxStates)
	}
	s.fallbacks++
	goal, states, parents, err := productSearch(ctx, s.db, s.c, srcs, matchDsts(dsts), s.maxStates)
	if err != nil || goal < 0 {
		return nil, false, err
	}
	return reconstructPaths(s.c, srcs, states, parents, goal), true, nil
}

// work reports the traversals begun and the product states expanded so far
// (the fallback keeps no count of states).
func (s *componentSearch) work() (traversals, states int) {
	if s.fp == nil {
		return s.fallbacks, 0
	}
	return s.fp.traversals, s.fp.expanded
}

func (s *componentSearch) release() { s.fp.releaseMem() }

// checkComponent is a one-off componentSearch.witness: the paths for one
// pair of endpoint tuples, on a kernel of its own.
func checkComponent(ctx context.Context, db *graphdb.DB, c *component, srcs, dsts []int, maxStates int) ([]graphdb.Path, bool, error) {
	s := componentSearch{db: db, c: c, maxStates: maxStates}
	defer s.release()
	return s.witness(ctx, srcs, dsts)
}

// componentReachSet computes, for fixed sources, every tuple of destination
// vertices reachable by satisfying paths, and appends them to buf back to
// back (one vertex per track each). When fp is non-nil it is used (and
// reused across calls, e.g. over a streamed source sweep): destinations are
// collected as the packed keys the sweep kernel uses and decoded in key
// order. Pass nil to fall back to the general search for components whose
// state does not pack. Either way tuples come out in lexicographic order,
// not in the order the search met them: it is the order sweepComponent
// emits, which streaming enumeration (the /v1/enumerate cursor) is pinned
// to.
func componentReachSet(ctx context.Context, db *graphdb.DB, c *component, fp *fastProduct, srcs []int, maxStates int, buf []int) ([]int, error) {
	if fp == nil {
		var out [][]int
		_, _, _, err := productSearch(ctx, db, c, srcs, func(st productState) bool {
			out = append(out, st.verts)
			return false // keep searching
		}, maxStates)
		if err != nil {
			return nil, err
		}
		slices.SortFunc(out, slices.Compare[[]int])
		for _, dsts := range slices.CompactFunc(out, slices.Equal[[]int]) {
			buf = append(buf, dsts...)
		}
		return buf, nil
	}
	if err := fp.Run(ctx, srcs, maxStates); err != nil {
		return nil, err
	}
	slices.Sort(fp.dests)
	for _, key := range fp.dests {
		n := len(buf)
		buf = append(buf, srcs...) // t slots, overwritten below
		fp.unpackDest(key, buf[n:])
	}
	return buf, nil
}

package twolevel

import (
	"math/bits"
	"sort"
)

// SimpleGraph is an undirected simple graph on vertices 0..N-1.
type SimpleGraph struct {
	N   int
	adj []map[int]bool
}

// NewSimpleGraph returns an empty simple graph with n vertices.
func NewSimpleGraph(n int) *SimpleGraph {
	g := &SimpleGraph{N: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// AddEdge inserts the undirected edge {u, v}; loops and duplicates are
// ignored.
func (g *SimpleGraph) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= g.N || v >= g.N {
		return
	}
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// HasEdge reports whether {u, v} is an edge.
func (g *SimpleGraph) HasEdge(u, v int) bool { return u >= 0 && u < g.N && g.adj[u][v] }

// Neighbors returns the sorted neighbor list of v.
func (g *SimpleGraph) Neighbors(v int) []int {
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Clone returns a deep copy.
func (g *SimpleGraph) Clone() *SimpleGraph {
	c := NewSimpleGraph(g.N)
	for u, a := range g.adj {
		for v := range a {
			c.adj[u][v] = true
		}
	}
	return c
}

// exactTreewidthMaxN bounds the subset-DP exact treewidth computation
// (memory 2^n bytes, time ~2^n·n·w).
const exactTreewidthMaxN = 20

// Treewidth computes the treewidth of the graph (standard convention:
// max bag size − 1; the empty and edgeless graphs have treewidth 0).
// For graphs with at most exactTreewidthMaxN vertices the result is exact
// (lower == upper, exact == true); beyond that it returns a heuristic
// interval [lower, upper] where upper comes from min-fill elimination and
// lower from a degeneracy-style bound.
func (g *SimpleGraph) Treewidth() (lower, upper int, exact bool) {
	if g.N == 0 {
		return 0, 0, true
	}
	if g.N <= exactTreewidthMaxN {
		tw := g.exactTreewidth()
		return tw, tw, true
	}
	up := g.minFillWidth()
	lo := g.degeneracyLowerBound()
	if mmw := g.minorMinWidthLowerBound(); mmw > lo {
		lo = mmw
	}
	if lo > up {
		lo = up
	}
	return lo, up, false
}

// minorMinWidthLowerBound computes the MMW (minor-min-width) lower bound on
// treewidth: repeatedly contract a minimum-degree vertex into its
// lowest-degree neighbor; the maximum minimum-degree observed is a lower
// bound (treewidth is minor-monotone and at least the minimum degree).
func (g *SimpleGraph) minorMinWidthLowerBound() int {
	h := g.Clone()
	alive := make([]bool, g.N)
	for i := range alive {
		alive[i] = true
	}
	remaining := g.N
	best := 0
	for remaining > 1 {
		// Minimum-degree alive vertex.
		v, vd := -1, 1<<30
		for i := 0; i < g.N; i++ {
			if alive[i] && len(h.adj[i]) < vd {
				v, vd = i, len(h.adj[i])
			}
		}
		if vd > best {
			best = vd
		}
		if vd == 0 {
			alive[v] = false
			remaining--
			continue
		}
		// Lowest-degree neighbor.
		u, ud := -1, 1<<30
		for w := range h.adj[v] {
			if len(h.adj[w]) < ud {
				u, ud = w, len(h.adj[w])
			}
		}
		// Contract v into u: u inherits v's other neighbors.
		for w := range h.adj[v] {
			if w != u {
				h.AddEdge(u, w)
			}
			delete(h.adj[w], v)
		}
		h.adj[v] = make(map[int]bool)
		alive[v] = false
		remaining--
	}
	return best
}

// exactTreewidth runs the classic subset dynamic program
// tw(S) = min over v ∈ S of max(tw(S \ v), q(S \ v, v)) where q(S, v)
// counts the vertices outside S ∪ {v} reachable from v through S.
func (g *SimpleGraph) exactTreewidth() int {
	n := g.N
	adj := make([]uint32, n)
	for u := 0; u < n; u++ {
		for v := range g.adj[u] {
			adj[u] |= 1 << uint(v)
		}
	}
	full := uint32(1)<<uint(n) - 1
	q := func(S uint32, v int) int {
		// Reachable set from v through S.
		reach := uint32(1) << uint(v)
		frontier := reach
		for frontier != 0 {
			var next uint32
			f := frontier
			for f != 0 {
				u := bits.TrailingZeros32(f)
				f &= f - 1
				next |= adj[u]
			}
			frontier = next & S &^ reach
			reach |= frontier
		}
		// Neighbors of the reachable set outside S ∪ {v}.
		var nbrs uint32
		r := reach
		for r != 0 {
			u := bits.TrailingZeros32(r)
			r &= r - 1
			nbrs |= adj[u]
		}
		return bits.OnesCount32(nbrs &^ (S | 1<<uint(v)))
	}
	const inf = 127
	tw := make([]int8, full+1)
	for S := uint32(1); S <= full; S++ {
		best := int8(inf)
		s := S
		for s != 0 {
			v := bits.TrailingZeros32(s)
			s &= s - 1
			rest := S &^ (1 << uint(v))
			cand := tw[rest]
			qv := int8(q(rest, v))
			if qv > cand {
				cand = qv
			}
			if cand < best {
				best = cand
			}
		}
		tw[S] = best
	}
	return int(tw[full])
}

// minFillWidth returns the width of the elimination order produced by the
// min-fill heuristic.
func (g *SimpleGraph) minFillWidth() int {
	order, _ := g.MinFillOrder()
	return g.eliminationWidth(order)
}

// MinFillOrder computes an elimination order by repeatedly removing the
// vertex whose elimination adds the fewest fill edges, returning the order
// and the fill-in graph (the chordal completion).
func (g *SimpleGraph) MinFillOrder() ([]int, *SimpleGraph) {
	h := g.Clone()
	fill := g.Clone()
	removed := make([]bool, g.N)
	order := make([]int, 0, g.N)
	for len(order) < g.N {
		bestV, bestCost := -1, -1
		for v := 0; v < g.N; v++ {
			if removed[v] {
				continue
			}
			nbrs := h.Neighbors(v)
			cost := 0
			for i := 0; i < len(nbrs); i++ {
				for j := i + 1; j < len(nbrs); j++ {
					if !h.HasEdge(nbrs[i], nbrs[j]) {
						cost++
					}
				}
			}
			if bestV < 0 || cost < bestCost {
				bestV, bestCost = v, cost
			}
		}
		nbrs := h.Neighbors(bestV)
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				h.AddEdge(nbrs[i], nbrs[j])
				fill.AddEdge(nbrs[i], nbrs[j])
			}
		}
		for _, u := range nbrs {
			delete(h.adj[u], bestV)
		}
		h.adj[bestV] = make(map[int]bool)
		removed[bestV] = true
		order = append(order, bestV)
	}
	return order, fill
}

// eliminationWidth returns the width (max forward degree in the fill-in
// graph) of the elimination order.
func (g *SimpleGraph) eliminationWidth(order []int) int {
	h := g.Clone()
	pos := make([]int, g.N)
	for i, v := range order {
		pos[v] = i
	}
	width := 0
	for _, v := range order {
		nbrs := h.Neighbors(v)
		var later []int
		for _, u := range nbrs {
			if pos[u] > pos[v] {
				later = append(later, u)
			}
		}
		if len(later) > width {
			width = len(later)
		}
		for i := 0; i < len(later); i++ {
			for j := i + 1; j < len(later); j++ {
				h.AddEdge(later[i], later[j])
			}
		}
	}
	return width
}

// degeneracyLowerBound returns the degeneracy of the graph, a lower bound on
// treewidth.
func (g *SimpleGraph) degeneracyLowerBound() int {
	deg := make([]int, g.N)
	removed := make([]bool, g.N)
	h := g.Clone()
	for v := 0; v < g.N; v++ {
		deg[v] = len(h.adj[v])
	}
	degeneracy := 0
	for k := 0; k < g.N; k++ {
		best, bd := -1, 1<<30
		for v := 0; v < g.N; v++ {
			if !removed[v] && deg[v] < bd {
				best, bd = v, deg[v]
			}
		}
		if bd > degeneracy {
			degeneracy = bd
		}
		removed[best] = true
		for u := range h.adj[best] {
			if !removed[u] {
				deg[u]--
			}
		}
	}
	return degeneracy
}

// TreeDecomposition is a tree of bags over a graph's vertices.
type TreeDecomposition struct {
	Bags      [][]int
	TreeEdges [][2]int
}

// Width returns max bag size − 1 (or 0 for an empty decomposition).
func (td *TreeDecomposition) Width() int {
	w := 0
	for _, b := range td.Bags {
		if len(b) > w {
			w = len(b)
		}
	}
	if w == 0 {
		return 0
	}
	return w - 1
}

// Decompose builds a tree decomposition via the min-fill elimination order.
// Its width is an upper bound on treewidth; for graphs within the exact-DP
// size limit the caller can compare against Treewidth.
func (g *SimpleGraph) Decompose() *TreeDecomposition {
	order, fill := g.MinFillOrder()
	return decomposeFromOrder(fill, order)
}

// decomposeFromOrder builds a decomposition from an elimination order over
// an already-filled (chordal) graph: bag(v) = {v} ∪ later neighbors, with
// bag(v) attached to the bag of its earliest later neighbor.
func decomposeFromOrder(fill *SimpleGraph, order []int) *TreeDecomposition {
	n := fill.N
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	td := &TreeDecomposition{}
	bagOf := make([]int, n) // vertex → its bag index (by elimination position)
	for i, v := range order {
		bag := []int{v}
		firstLater := -1
		for _, u := range fill.Neighbors(v) {
			if pos[u] > pos[v] {
				bag = append(bag, u)
				if firstLater < 0 || pos[u] < pos[firstLater] {
					firstLater = u
				}
			}
		}
		sort.Ints(bag)
		td.Bags = append(td.Bags, bag)
		bagOf[v] = i
		if firstLater >= 0 {
			// The tree edge is added once the later bag exists; defer.
			_ = firstLater
		}
	}
	// Second pass for tree edges (later bags now exist).
	for i, v := range order {
		firstLater := -1
		for _, u := range fill.Neighbors(v) {
			if pos[u] > pos[v] && (firstLater < 0 || pos[u] < pos[firstLater]) {
				firstLater = u
			}
		}
		if firstLater >= 0 {
			td.TreeEdges = append(td.TreeEdges, [2]int{i, bagOf[firstLater]})
		}
	}
	return td
}

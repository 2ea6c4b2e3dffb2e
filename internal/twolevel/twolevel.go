// Package twolevel implements two-level multi-hypergraphs (2L graphs,
// Section 2 of the paper), the structural abstraction of ECRPQ queries, the
// derived graphs G^rel and G^node, and the three measures that
// drive the complexity characterization: treewidth (of G^node), cc_vertex
// and cc_hedge (component sizes in G^rel).
package twolevel

import "ecrpq/internal/query"

// Graph is a two-level multi-hypergraph G = (V, E, H, η, ν): (V, E, η) is a
// multigraph of first-level edges and (E, H, ν) a multi-hypergraph of
// second-level hyperedges over those edges.
type Graph struct {
	NumVertices int
	Edges       []Endpoints // η: edge index → vertex pair
	Hyper       [][]int     // ν: hyperedge index → set of edge indices
}

// Endpoints is the (ordered, for query provenance) vertex pair of a
// first-level edge.
type Endpoints struct{ U, V int }

// Abstraction computes the 2L-graph abstraction of an ECRPQ (Section 2,
// "Two-level graphs"): vertices are node variables, first-level edges are
// path variables, second-level hyperedges are relation atoms. It also
// returns the node- and path-variable names indexing V and E.
func Abstraction(q *query.Query) (*Graph, []string, []string) {
	nodeIdx := make(map[string]int)
	var nodeNames []string
	node := func(v string) int {
		if i, ok := nodeIdx[v]; ok {
			return i
		}
		i := len(nodeNames)
		nodeIdx[v] = i
		nodeNames = append(nodeNames, v)
		return i
	}
	pathIdx := make(map[string]int)
	var pathNames []string
	g := &Graph{}
	for _, r := range q.Reach {
		u, v := node(r.Src), node(r.Dst)
		pathIdx[r.Path] = len(g.Edges)
		pathNames = append(pathNames, r.Path)
		g.Edges = append(g.Edges, Endpoints{u, v})
	}
	g.NumVertices = len(nodeNames)
	for _, ra := range q.Rels {
		h := make([]int, len(ra.Paths))
		for i, p := range ra.Paths {
			h[i] = pathIdx[p]
		}
		g.Hyper = append(g.Hyper, h)
	}
	return g, nodeNames, pathNames
}

// Component is a connected component of G^rel: a maximal set of first-level
// edges connected through shared hyperedges, together with the hyperedges it
// contains. An edge in no hyperedge forms a singleton component with no
// hyperedges.
type Component struct {
	Edges []int
	Hyper []int
}

// RelComponents computes the connected components of G^rel = (E, H, ν).
func (g *Graph) RelComponents() []Component {
	parent := make([]int, len(g.Edges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, h := range g.Hyper {
		for _, e := range h[1:] {
			union(h[0], e)
		}
	}
	compOf := make(map[int]*Component)
	order := []int{}
	for e := range g.Edges {
		r := find(e)
		c, ok := compOf[r]
		if !ok {
			c = &Component{}
			compOf[r] = c
			order = append(order, r)
		}
		c.Edges = append(c.Edges, e)
	}
	for hi, h := range g.Hyper {
		r := find(h[0])
		compOf[r].Hyper = append(compOf[r].Hyper, hi)
	}
	out := make([]Component, len(order))
	for i, r := range order {
		out[i] = *compOf[r]
	}
	return out
}

// CCVertex is the cc_vertex measure: the maximum number of first-level
// edges (= vertices of G^rel) in a connected component of G^rel. Zero for a
// 2L graph without edges.
func (g *Graph) CCVertex() int {
	m := 0
	for _, c := range g.RelComponents() {
		if len(c.Edges) > m {
			m = len(c.Edges)
		}
	}
	return m
}

// CCHedge is the cc_hedge measure: the maximum number of hyperedges in a
// connected component of G^rel.
func (g *Graph) CCHedge() int {
	m := 0
	for _, c := range g.RelComponents() {
		if len(c.Hyper) > m {
			m = len(c.Hyper)
		}
	}
	return m
}

// NodeGraph computes G^node: the simple graph on V that joins every pair of
// vertices incident (through first-level edges) to the same connected
// component of G^rel — i.e. components are replaced by cliques on their
// incident vertices. Only components containing at least one hyperedge
// contribute (matching the paper's definition, which requires witnessing
// hyperedges h, h'); normalize queries first if unconstrained path variables
// should count.
func (g *Graph) NodeGraph() *SimpleGraph {
	sg := NewSimpleGraph(g.NumVertices)
	for _, c := range g.RelComponents() {
		if len(c.Hyper) == 0 {
			continue
		}
		var verts []int
		seen := make(map[int]bool)
		for _, e := range c.Edges {
			for _, v := range []int{g.Edges[e].U, g.Edges[e].V} {
				if !seen[v] {
					seen[v] = true
					verts = append(verts, v)
				}
			}
		}
		for i := 0; i < len(verts); i++ {
			for j := i + 1; j < len(verts); j++ {
				sg.AddEdge(verts[i], verts[j])
			}
		}
	}
	return sg
}

// Treewidth returns exact-or-bounded treewidth of G^node; see
// SimpleGraph.Treewidth for the bounds contract.
func (g *Graph) Treewidth() (lower, upper int, exact bool) {
	return g.NodeGraph().Treewidth()
}

// Measures bundles the three structural measures of a 2L graph.
type Measures struct {
	CCVertex       int
	CCHedge        int
	TreewidthLower int
	TreewidthUpper int
	TreewidthExact bool
}

// ComputeMeasures evaluates all measures of the 2L graph.
func (g *Graph) ComputeMeasures() Measures {
	lo, hi, exact := g.Treewidth()
	return Measures{
		CCVertex:       g.CCVertex(),
		CCHedge:        g.CCHedge(),
		TreewidthLower: lo,
		TreewidthUpper: hi,
		TreewidthExact: exact,
	}
}

// QueryMeasures computes the measures of a query's (normalized) abstraction.
// Normalization ensures unconstrained path variables count as singleton
// universal components, matching the evaluation semantics.
func QueryMeasures(q *query.Query) Measures {
	g, _, _ := Abstraction(q.Normalize())
	return g.ComputeMeasures()
}

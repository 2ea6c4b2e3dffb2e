package twolevel

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// paperExample builds the 2L graph from the illustration on page 5 of the
// paper: edges π1..π5, hyperedges h1 = {π2, π3}, h2 = {π3, π4}; π1 and π5
// are in no hyperedge. Vertex structure: a path of 6 vertices.
func paperExample() *Graph {
	g := &Graph{NumVertices: 6}
	for i := 0; i < 5; i++ {
		g.Edges = append(g.Edges, Endpoints{i, i + 1})
	}
	g.Hyper = [][]int{{1, 2}, {2, 3}}
	return g
}

func TestValidate(t *testing.T) {
	g := paperExample()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	bad1 := &Graph{NumVertices: 1, Edges: []Endpoints{{0, 5}}}
	if err := bad1.Validate(); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	bad2 := &Graph{NumVertices: 2, Edges: []Endpoints{{0, 1}}, Hyper: [][]int{{}}}
	if err := bad2.Validate(); err == nil {
		t.Error("empty hyperedge accepted")
	}
	bad3 := &Graph{NumVertices: 2, Edges: []Endpoints{{0, 1}}, Hyper: [][]int{{0, 0}}}
	if err := bad3.Validate(); err == nil {
		t.Error("repeated member accepted")
	}
	bad4 := &Graph{NumVertices: 2, Edges: []Endpoints{{0, 1}}, Hyper: [][]int{{3}}}
	if err := bad4.Validate(); err == nil {
		t.Error("out-of-range member accepted")
	}
}

func TestRelComponentsAndMeasuresPaperExample(t *testing.T) {
	g := paperExample()
	comps := g.RelComponents()
	// {π2,π3,π4} with 2 hyperedges, plus singletons {π1}, {π5}.
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if got := g.CCVertex(); got != 3 {
		t.Errorf("cc_vertex = %d, want 3 (paper example)", got)
	}
	if got := g.CCHedge(); got != 2 {
		t.Errorf("cc_hedge = %d, want 2 (paper example)", got)
	}
}

func TestNodeGraphCliques(t *testing.T) {
	g := paperExample()
	sg := g.NodeGraph()
	// Component {π2,π3,π4} touches vertices 1..4 → clique on {1,2,3,4}.
	for i := 1; i <= 4; i++ {
		for j := i + 1; j <= 4; j++ {
			if !sg.HasEdge(i, j) {
				t.Errorf("missing clique edge {%d,%d}", i, j)
			}
		}
	}
	// π1 (vertices 0,1) and π5 (4,5) are in hyperedge-free components: no
	// contribution.
	if sg.HasEdge(0, 1) || sg.HasEdge(4, 5) {
		t.Error("hyperedge-free component contributed edges")
	}
	if sg.NumEdges() != 6 {
		t.Errorf("edges = %d, want 6 (K4)", sg.NumEdges())
	}
}

func TestCollapseGraph(t *testing.T) {
	g := paperExample()
	mg, nc := g.CollapseGraph()
	if nc != 3 {
		t.Fatalf("components = %d", nc)
	}
	// Every first-level edge contributes two collapse edges.
	if mg.NumEdges() != 2*len(g.Edges) {
		t.Errorf("collapse edges = %d, want %d", mg.NumEdges(), 2*len(g.Edges))
	}
	// Collapse graph is bipartite V vs C: no edge within V.
	for k := range mg.Mult {
		if k[0] < g.NumVertices && k[1] < g.NumVertices {
			t.Errorf("edge %v within V", k)
		}
	}
	// Multiplicity: a self-loop edge η(e)={v,v} would give multiplicity 2.
	g2 := &Graph{NumVertices: 1, Edges: []Endpoints{{0, 0}}, Hyper: [][]int{{0}}}
	mg2, _ := g2.CollapseGraph()
	if mg2.NumEdges() != 2 {
		t.Errorf("loop edge multiplicity = %d, want 2", mg2.NumEdges())
	}
}

func TestAbstractionFromQuery(t *testing.T) {
	a := alphabet.Lower(2)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Reach("y", "p3", "z").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		MustBuild()
	g, nodeNames, pathNames := Abstraction(q)
	if g.NumVertices != 3 || len(g.Edges) != 3 || len(g.Hyper) != 1 {
		t.Fatalf("abstraction shape: V=%d E=%d H=%d", g.NumVertices, len(g.Edges), len(g.Hyper))
	}
	if nodeNames[0] != "x" || pathNames[2] != "p3" {
		t.Errorf("names: %v %v", nodeNames, pathNames)
	}
	if g.CCVertex() != 2 || g.CCHedge() != 1 {
		t.Errorf("measures: ccv=%d cch=%d", g.CCVertex(), g.CCHedge())
	}
	// Normalized abstraction covers p3 too.
	gn, _, _ := Abstraction(q.Normalize())
	if len(gn.Hyper) != 2 {
		t.Errorf("normalized hyperedges = %d", len(gn.Hyper))
	}
}

func pathGraph(n int) *SimpleGraph {
	g := NewSimpleGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycleGraph(n int) *SimpleGraph {
	g := pathGraph(n)
	g.AddEdge(n-1, 0)
	return g
}

func cliqueGraph(n int) *SimpleGraph {
	g := NewSimpleGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func gridGraph(r, c int) *SimpleGraph {
	g := NewSimpleGraph(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j))
			}
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1))
			}
		}
	}
	return g
}

func TestTreewidthKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *SimpleGraph
		want int
	}{
		{"empty", NewSimpleGraph(0), 0},
		{"single", NewSimpleGraph(1), 0},
		{"edgeless5", NewSimpleGraph(5), 0},
		{"path6", pathGraph(6), 1},
		{"cycle5", cycleGraph(5), 2},
		{"K4", cliqueGraph(4), 3},
		{"K7", cliqueGraph(7), 6},
		{"grid3x3", gridGraph(3, 3), 3},
		{"grid2x5", gridGraph(2, 5), 2},
		{"grid4x4", gridGraph(4, 4), 4},
	}
	for _, c := range cases {
		lo, hi, exact := c.g.Treewidth()
		if !exact || lo != c.want || hi != c.want {
			t.Errorf("%s: Treewidth = [%d,%d] exact=%v, want %d", c.name, lo, hi, exact, c.want)
		}
	}
}

func TestTreewidthDisconnected(t *testing.T) {
	// K3 ⊎ path: tw = max(2, 1) = 2.
	g := NewSimpleGraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	lo, hi, exact := g.Treewidth()
	if !exact || lo != 2 || hi != 2 {
		t.Errorf("Treewidth = [%d,%d] exact=%v, want 2", lo, hi, exact)
	}
}

func TestTreewidthLargeGraphBounds(t *testing.T) {
	// 25-vertex grid (5x5): exact DP disabled, tw = 5.
	g := gridGraph(5, 5)
	lo, hi, exact := g.Treewidth()
	if exact {
		t.Error("25 vertices should be heuristic")
	}
	if lo > 5 || hi < 5 {
		t.Errorf("bounds [%d,%d] do not contain 5", lo, hi)
	}
	if lo > hi {
		t.Errorf("lower %d > upper %d", lo, hi)
	}
}

func TestDecomposeVerify(t *testing.T) {
	for _, g := range []*SimpleGraph{pathGraph(6), cycleGraph(7), cliqueGraph(5), gridGraph(3, 4)} {
		td := g.Decompose()
		if err := td.Verify(g); err != nil {
			t.Errorf("decomposition invalid: %v", err)
		}
		lo, _, _ := g.Treewidth()
		if td.Width() < lo {
			t.Errorf("decomposition width %d below treewidth %d", td.Width(), lo)
		}
	}
}

func TestVerifyCatchesBadDecompositions(t *testing.T) {
	g := pathGraph(3)
	// Missing edge coverage.
	bad := &TreeDecomposition{Bags: [][]int{{0}, {1}, {2}}, TreeEdges: [][2]int{{0, 1}, {1, 2}}}
	if err := bad.Verify(g); err == nil {
		t.Error("uncovered edge not caught")
	}
	// Disconnected holding set.
	bad2 := &TreeDecomposition{
		Bags:      [][]int{{0, 1}, {1, 2}, {0}},
		TreeEdges: [][2]int{{0, 1}, {1, 2}},
	}
	if err := bad2.Verify(g); err == nil {
		t.Error("disconnected vertex subtree not caught")
	}
	// Cycle in tree edges.
	bad3 := &TreeDecomposition{
		Bags:      [][]int{{0, 1}, {1, 2}, {0, 1, 2}},
		TreeEdges: [][2]int{{0, 1}, {1, 2}, {2, 0}},
	}
	if err := bad3.Verify(g); err == nil {
		t.Error("cycle not caught")
	}
	// Vertex in no bag.
	bad4 := &TreeDecomposition{Bags: [][]int{{0, 1}, {1, 2}}, TreeEdges: [][2]int{{0, 1}}}
	g4 := pathGraph(4)
	if err := bad4.Verify(g4); err == nil {
		t.Error("vertex in no bag not caught")
	}
	// Out-of-range tree edge.
	bad5 := &TreeDecomposition{Bags: [][]int{{0, 1, 2}}, TreeEdges: [][2]int{{0, 9}}}
	if err := bad5.Verify(g); err == nil {
		t.Error("out-of-range tree edge not caught")
	}
}

func randomSimpleGraph(rng *rand.Rand, n int, p float64) *SimpleGraph {
	g := NewSimpleGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func TestTreewidthBoundsConsistentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := randomSimpleGraph(rng, n, 0.4)
		tw, _, _ := g.Treewidth()
		// Heuristic upper bound must dominate, degeneracy must not exceed.
		up := g.minFillWidth()
		lo := g.degeneracyLowerBound()
		if up < tw || lo > tw {
			t.Logf("n=%d tw=%d minfill=%d degeneracy=%d", n, tw, up, lo)
			return false
		}
		// Decomposition must be valid with width ≥ tw.
		td := g.Decompose()
		if err := td.Verify(g); err != nil {
			return false
		}
		return td.Width() >= tw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTreewidthMonotoneUnderEdgeAdditionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(7)
		g := randomSimpleGraph(rng, n, 0.3)
		tw1, _, _ := g.Treewidth()
		g2 := g.Clone()
		g2.AddEdge(rng.Intn(n), rng.Intn(n))
		tw2, _, _ := g2.Treewidth()
		return tw2 >= tw1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLemma52Inequality checks the quantitative core of Lemma 5.2: with
// cc_vertex ≤ n, tw(G^node) ≤ (tw(G^collapse)+1)·2n − 1.
func TestLemma52Inequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + rng.Intn(5)
		ne := 1 + rng.Intn(6)
		g := &Graph{NumVertices: nv}
		for i := 0; i < ne; i++ {
			g.Edges = append(g.Edges, Endpoints{rng.Intn(nv), rng.Intn(nv)})
		}
		nh := rng.Intn(4)
		for i := 0; i < nh; i++ {
			size := 1 + rng.Intn(3)
			perm := rng.Perm(ne)
			h := perm[:min(size, ne)]
			g.Hyper = append(g.Hyper, append([]int(nil), h...))
		}
		n := g.CCVertex()
		if n == 0 {
			return true
		}
		nodeTW, _, ex1 := g.NodeGraph().Treewidth()
		mg, _ := g.CollapseGraph()
		collTW, _, ex2 := mg.Simple().Treewidth()
		if !ex1 || !ex2 {
			return true
		}
		return nodeTW <= (collTW+1)*2*n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestClassify(t *testing.T) {
	cases := []struct {
		ccv, cch, tw bool
		ec           EvalClass
		pc           ParamClass
	}{
		{true, true, true, EvalPTime, ParamFPT},
		{true, true, false, EvalNP, ParamW1},
		{true, false, true, EvalPSpace, ParamFPT},
		{true, false, false, EvalPSpace, ParamW1},
		{false, true, true, EvalPSpace, ParamXNL},
		{false, false, false, EvalPSpace, ParamXNL},
	}
	for _, c := range cases {
		ec, pc := Classify(c.ccv, c.cch, c.tw)
		if ec != c.ec || pc != c.pc {
			t.Errorf("Classify(%v,%v,%v) = %v,%v; want %v,%v",
				c.ccv, c.cch, c.tw, ec, pc, c.ec, c.pc)
		}
	}
}

func TestClassifyThresholds(t *testing.T) {
	m := Measures{CCVertex: 2, CCHedge: 3, TreewidthUpper: 1}
	ec, pc := Classify(m.CCVertex <= 2, m.CCHedge <= 3, m.TreewidthUpper <= 1)
	if ec != EvalPTime || pc != ParamFPT {
		t.Errorf("bounded case: %v, %v", ec, pc)
	}
	ec, pc = Classify(m.CCVertex <= 1, m.CCHedge <= 3, m.TreewidthUpper <= 1)
	if ec != EvalPSpace || pc != ParamXNL {
		t.Errorf("cc_vertex overflow: %v, %v", ec, pc)
	}
}

func TestQueryMeasures(t *testing.T) {
	a := alphabet.Lower(2)
	// Example 2.1 shape: two paths into a shared node, eq-len constrained.
	q := query.NewBuilder(a).
		Reach("x", "p1", "z").
		Reach("y", "p2", "z").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		MustBuild()
	m := QueryMeasures(q)
	if m.CCVertex != 2 || m.CCHedge != 1 {
		t.Errorf("measures = %+v", m)
	}
	// G^node is a triangle on {x, y, z}... actually a clique on the 3
	// incident vertices → tw 2.
	if !m.TreewidthExact || m.TreewidthUpper != 2 {
		t.Errorf("tw = [%d,%d]", m.TreewidthLower, m.TreewidthUpper)
	}
}

func TestMultiGraphBasics(t *testing.T) {
	m := NewMultiGraph(3)
	m.AddEdge(0, 1)
	m.AddEdge(1, 0)
	m.AddEdge(1, 2)
	if m.NumEdges() != 3 {
		t.Errorf("NumEdges = %d", m.NumEdges())
	}
	s := m.Simple()
	if s.NumEdges() != 2 {
		t.Errorf("simple edges = %d", s.NumEdges())
	}
}

func TestSimpleGraphIgnoresBadEdges(t *testing.T) {
	g := NewSimpleGraph(2)
	g.AddEdge(0, 0)  // loop
	g.AddEdge(0, 9)  // out of range
	g.AddEdge(-1, 0) // out of range
	if g.NumEdges() != 0 {
		t.Errorf("edges = %d", g.NumEdges())
	}
}

func TestFamiliesHaveExpectedMeasures(t *testing.T) {
	fan := fanGraph(4)
	if fan.CCVertex() != 5 || fan.CCHedge() != 1 {
		t.Errorf("fan(4): ccv=%d cch=%d", fan.CCVertex(), fan.CCHedge())
	}
	star := starGraph(4)
	if star.CCVertex() != 1 || star.CCHedge() != 5 {
		t.Errorf("star(4): ccv=%d cch=%d", star.CCVertex(), star.CCHedge())
	}
	chain := chainGraph(4)
	if chain.CCVertex() != 5 || chain.CCHedge() != 4 {
		t.Errorf("chain(4): ccv=%d cch=%d", chain.CCVertex(), chain.CCHedge())
	}
	bounded := boundedGraph(9)
	if bounded.CCVertex() != 2 || bounded.CCHedge() != 1 {
		t.Errorf("bounded(9): ccv=%d cch=%d", bounded.CCVertex(), bounded.CCHedge())
	}
	for _, g := range []*Graph{fan, star, chain, bounded} {
		if err := g.Validate(); err != nil {
			t.Errorf("family member invalid: %v", err)
		}
	}
}

func TestMinorMinWidthLowerBound(t *testing.T) {
	// MMW on a 5x5 grid should beat degeneracy (2) and reach ≥ 3.
	g := gridGraph(5, 5)
	mmw := g.minorMinWidthLowerBound()
	deg := g.degeneracyLowerBound()
	if mmw < 3 {
		t.Errorf("MMW on grid5x5 = %d, want ≥ 3", mmw)
	}
	if mmw < deg {
		t.Errorf("MMW %d below degeneracy %d", mmw, deg)
	}
	// MMW never exceeds treewidth on exactly-solvable graphs.
	for _, tc := range []struct {
		g  *SimpleGraph
		tw int
	}{
		{pathGraph(8), 1}, {cycleGraph(6), 2}, {cliqueGraph(6), 5}, {gridGraph(4, 4), 4},
	} {
		if got := tc.g.minorMinWidthLowerBound(); got > tc.tw {
			t.Errorf("MMW %d exceeds treewidth %d", got, tc.tw)
		}
	}
	// Edgeless and tiny graphs.
	if NewSimpleGraph(3).minorMinWidthLowerBound() != 0 {
		t.Error("edgeless MMW should be 0")
	}
	if NewSimpleGraph(0).minorMinWidthLowerBound() != 0 {
		t.Error("empty MMW should be 0")
	}
}

func TestMMWSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(9)
		g := randomSimpleGraph(rng, n, 0.4)
		tw, _, _ := g.Treewidth()
		return g.minorMinWidthLowerBound() <= tw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Validate checks index ranges and that hyperedges are non-empty with
// distinct members.
func (g *Graph) Validate() error {
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= g.NumVertices || e.V < 0 || e.V >= g.NumVertices {
			return fmt.Errorf("twolevel: edge %d endpoints (%d,%d) out of range", i, e.U, e.V)
		}
	}
	for i, h := range g.Hyper {
		if len(h) == 0 {
			return fmt.Errorf("twolevel: hyperedge %d is empty", i)
		}
		seen := make(map[int]bool, len(h))
		for _, e := range h {
			if e < 0 || e >= len(g.Edges) {
				return fmt.Errorf("twolevel: hyperedge %d member %d out of range", i, e)
			}
			if seen[e] {
				return fmt.Errorf("twolevel: hyperedge %d repeats edge %d", i, e)
			}
			seen[e] = true
		}
	}
	return nil
}

// CollapseGraph computes G^collapse (Section 5.2): the bipartite multigraph
// on V ∪ C obtained by splitting every first-level edge η(e) = {u, v} in
// component c into edges {u, c} and {v, c}. It returns the multigraph
// (as a simple graph with multiplicity counts) and the number of component
// vertices appended after the original V vertices.
func (g *Graph) CollapseGraph() (*MultiGraph, int) {
	comps := g.RelComponents()
	mg := NewMultiGraph(g.NumVertices + len(comps))
	for ci, c := range comps {
		cv := g.NumVertices + ci
		for _, e := range c.Edges {
			mg.AddEdge(g.Edges[e].U, cv)
			mg.AddEdge(g.Edges[e].V, cv)
		}
	}
	return mg, len(comps)
}

// MultiGraph is an undirected multigraph (parallel edges counted).
type MultiGraph struct {
	N    int
	Mult map[[2]int]int // key: ordered pair (min, max)
}

// NewMultiGraph returns an empty multigraph with n vertices.
func NewMultiGraph(n int) *MultiGraph {
	return &MultiGraph{N: n, Mult: make(map[[2]int]int)}
}

// AddEdge adds one copy of {u, v}.
func (m *MultiGraph) AddEdge(u, v int) {
	if u > v {
		u, v = v, u
	}
	m.Mult[[2]int{u, v}]++
}

// NumEdges returns the total number of edges counting multiplicity.
func (m *MultiGraph) NumEdges() int {
	n := 0
	for _, c := range m.Mult {
		n += c
	}
	return n
}

// Simple returns the underlying simple graph (multiplicities and loops
// dropped).
func (m *MultiGraph) Simple() *SimpleGraph {
	g := NewSimpleGraph(m.N)
	for k := range m.Mult {
		g.AddEdge(k[0], k[1])
	}
	return g
}

// Verify checks the tree-decomposition conditions for graph g: (1) every
// graph edge is inside some bag; (2) for every vertex, the bags containing
// it induce a connected subtree; and that TreeEdges form a forest over the
// bags (a tree per connected component of the bag set).
func (td *TreeDecomposition) Verify(g *SimpleGraph) error {
	nb := len(td.Bags)
	inBag := func(b int, v int) bool {
		for _, x := range td.Bags[b] {
			if x == v {
				return true
			}
		}
		return false
	}
	// Forest check (no cycles).
	parent := make([]int, nb)
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
	adj := make([][]int, nb)
	for _, e := range td.TreeEdges {
		if e[0] < 0 || e[0] >= nb || e[1] < 0 || e[1] >= nb {
			return fmt.Errorf("twolevel: tree edge %v out of range", e)
		}
		ra, rb := find(e[0]), find(e[1])
		if ra == rb {
			return fmt.Errorf("twolevel: tree edges contain a cycle at %v", e)
		}
		parent[ra] = rb
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	// Edge coverage.
	for u := 0; u < g.N; u++ {
		for v := range g.adj[u] {
			if u > v {
				continue
			}
			found := false
			for b := 0; b < nb && !found; b++ {
				if inBag(b, u) && inBag(b, v) {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("twolevel: edge {%d,%d} not covered by any bag", u, v)
			}
		}
	}
	// Connected-subtree condition per vertex.
	for v := 0; v < g.N; v++ {
		var holding []int
		for b := 0; b < nb; b++ {
			if inBag(b, v) {
				holding = append(holding, b)
			}
		}
		if len(holding) == 0 {
			// Vertices may be absent only if isolated and not covered; for
			// our constructions every vertex appears in its own bag.
			return fmt.Errorf("twolevel: vertex %d in no bag", v)
		}
		// BFS within holding set.
		hs := make(map[int]bool, len(holding))
		for _, b := range holding {
			hs[b] = true
		}
		seen := map[int]bool{holding[0]: true}
		queue := []int{holding[0]}
		for len(queue) > 0 {
			b := queue[0]
			queue = queue[1:]
			for _, nb2 := range adj[b] {
				if hs[nb2] && !seen[nb2] {
					seen[nb2] = true
					queue = append(queue, nb2)
				}
			}
		}
		if len(seen) != len(holding) {
			return fmt.Errorf("twolevel: bags holding vertex %d are disconnected", v)
		}
	}
	return nil
}

// The family generators: member i of each class of 2L graphs whose measures
// TestFamiliesHaveExpectedMeasures pins.

// fanGraph: i+1 parallel edges between two vertices joined by one hyperedge
// (unbounded cc_vertex, cc_hedge = 1).
func fanGraph(i int) *Graph {
	k := i + 1
	g := &Graph{NumVertices: 2}
	h := make([]int, k)
	for e := 0; e < k; e++ {
		g.Edges = append(g.Edges, Endpoints{0, 1})
		h[e] = e
	}
	g.Hyper = [][]int{h}
	return g
}

// starGraph: one edge shared by i+1 unary hyperedges (unbounded cc_hedge,
// cc_vertex = 1).
func starGraph(i int) *Graph {
	g := &Graph{NumVertices: 2, Edges: []Endpoints{{0, 1}}}
	for h := 0; h <= i; h++ {
		g.Hyper = append(g.Hyper, []int{0})
	}
	return g
}

// chainGraph: i+1 edges chained by binary hyperedges (unbounded cc_vertex
// with hyperedges of size ≤ 2, the Lemma 5.4(a) shape).
func chainGraph(i int) *Graph {
	k := i + 1
	g := &Graph{NumVertices: 2}
	for e := 0; e < k; e++ {
		g.Edges = append(g.Edges, Endpoints{0, 1})
	}
	for e := 0; e+1 < k; e++ {
		g.Hyper = append(g.Hyper, []int{e, e + 1})
	}
	return g
}

// boundedGraph: pair components on a growing path (every measure bounded).
func boundedGraph(i int) *Graph {
	k := 2 * (i + 1)
	g := &Graph{NumVertices: k + 1}
	for e := 0; e < k; e++ {
		g.Edges = append(g.Edges, Endpoints{e, e + 1})
	}
	for e := 0; e+1 < k; e += 2 {
		g.Hyper = append(g.Hyper, []int{e, e + 1})
	}
	return g
}

// NumEdges returns the number of edges.
func (g *SimpleGraph) NumEdges() int {
	m := 0
	for _, a := range g.adj {
		m += len(a)
	}
	return m / 2
}

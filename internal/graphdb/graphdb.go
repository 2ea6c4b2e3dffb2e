// Package graphdb implements edge-labelled graph databases (Section 2 of the
// paper): finite graphs D = (V, E) with E ⊆ V × A × V over a finite alphabet
// A, with the label-partitioned forward layout (CSR) the product kernels of
// internal/core traverse. A database grows edge by edge (AddVertex, AddEdge)
// or is built whole, in linear time, by Load — which Parse and the snapshot
// decoder of internal/persist go through; both give the same representation.
package graphdb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/invariant"
)

// Edge is a labelled edge to a target vertex (the source is implicit in the
// adjacency list position).
type Edge struct {
	Label alphabet.Symbol
	To    int
}

// DB is a graph database. Vertices are dense integers; each may carry an
// optional name. The zero value is not usable; create with New.
type DB struct {
	alpha *alphabet.Alphabet
	names []string
	index map[string]int
	out   [][]Edge
	in    [][]Edge
	edges int

	fwd   atomic.Pointer[CSR] // the forward layout of out; nil until Forward builds it, and again after a mutation
	fwdMu sync.Mutex          // serialises the build
}

// New returns an empty database over the given alphabet.
func New(a *alphabet.Alphabet) *DB {
	return &DB{alpha: a, index: make(map[string]int)}
}

// Alphabet returns the database's edge alphabet.
func (d *DB) Alphabet() *alphabet.Alphabet { return d.alpha }

// AddVertex adds a vertex with an optional name ("" for anonymous) and
// returns its id. Named vertices must be unique.
func (d *DB) AddVertex(name string) (int, error) {
	if name != "" {
		if _, ok := d.index[name]; ok {
			return -1, fmt.Errorf("graphdb: duplicate vertex %q", name)
		}
	}
	d.fwd.Store(nil)
	v := len(d.names)
	d.names = append(d.names, name)
	d.out = append(d.out, nil)
	d.in = append(d.in, nil)
	if name != "" {
		d.index[name] = v
	}
	return v, nil
}

// MustAddVertex is AddVertex, panicking on error.
func (d *DB) MustAddVertex(name string) int {
	return invariant.Must(d.AddVertex(name))
}

// EnsureVertex returns the id of the named vertex, creating it if absent.
func (d *DB) EnsureVertex(name string) int {
	if v, ok := d.index[name]; ok {
		return v
	}
	return d.MustAddVertex(name)
}

// Lookup returns the id of a named vertex.
func (d *DB) Lookup(name string) (int, bool) {
	v, ok := d.index[name]
	return v, ok
}

// RawVertexName returns the vertex's stored name, "" for anonymous
// vertices. Unlike VertexName it distinguishes a genuinely anonymous
// vertex from one literally named "v<id>", which binary codecs
// (internal/persist) need to round-trip databases exactly.
func (d *DB) RawVertexName(v int) string {
	if v >= 0 && v < len(d.names) {
		return d.names[v]
	}
	return ""
}

// VertexName returns the vertex's name, or "v<id>" if anonymous.
func (d *DB) VertexName(v int) string {
	if v >= 0 && v < len(d.names) && d.names[v] != "" {
		return d.names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// AddEdge adds the edge u --label--> v. Parallel duplicate edges are
// ignored.
func (d *DB) AddEdge(u int, label alphabet.Symbol, v int) error {
	if u < 0 || u >= len(d.out) || v < 0 || v >= len(d.out) {
		return fmt.Errorf("graphdb: edge endpoints (%d,%d) out of range", u, v)
	}
	if !d.alpha.Contains(label) {
		return fmt.Errorf("graphdb: label %d not in alphabet", label)
	}
	for _, e := range d.out[u] {
		if e.Label == label && e.To == v {
			return nil
		}
	}
	d.fwd.Store(nil)
	d.out[u] = append(d.out[u], Edge{label, v})
	d.in[v] = append(d.in[v], Edge{label, u})
	d.edges++
	return nil
}

// MustAddEdge is AddEdge, panicking on error.
func (d *DB) MustAddEdge(u int, label alphabet.Symbol, v int) {
	invariant.NoError(d.AddEdge(u, label, v), "graphdb: MustAddEdge")
}

// NumVertices returns the number of vertices.
func (d *DB) NumVertices() int { return len(d.names) }

// NumEdges returns the number of edges.
func (d *DB) NumEdges() int { return d.edges }

// Out returns the outgoing edges of v. The slice must not be modified.
func (d *DB) Out(v int) []Edge { return d.out[v] }

// In returns the incoming edges of v (Edge.To holds the source). The slice
// must not be modified.
func (d *DB) In(v int) []Edge { return d.in[v] }

// HasEdge reports whether u --label--> v exists.
func (d *DB) HasEdge(u int, label alphabet.Symbol, v int) bool {
	for _, e := range d.out[u] {
		if e.Label == label && e.To == v {
			return true
		}
	}
	return false
}

// Path is a path through the database: a start vertex plus a sequence of
// edges.
type Path struct {
	Start int
	Edges []Edge
}

// End returns the last vertex of the path.
func (p Path) End() int {
	if len(p.Edges) == 0 {
		return p.Start
	}
	return p.Edges[len(p.Edges)-1].To
}

// Len returns the number of edges.
func (p Path) Len() int { return len(p.Edges) }

// Label returns the word read along the path.
func (p Path) Label() alphabet.Word {
	w := make(alphabet.Word, len(p.Edges))
	for i, e := range p.Edges {
		w[i] = e.Label
	}
	return w
}

// Valid reports whether the path's edges exist in the database and chain
// correctly.
func (p Path) Valid(d *DB) bool {
	if p.Start < 0 || p.Start >= d.NumVertices() {
		return false
	}
	cur := p.Start
	for _, e := range p.Edges {
		if !d.HasEdge(cur, e.Label, e.To) {
			return false
		}
		cur = e.To
	}
	return true
}

// Format renders the path as v0 -a-> v1 -b-> v2.
func (p Path) Format(d *DB) string {
	var sb strings.Builder
	sb.WriteString(d.VertexName(p.Start))
	cur := p.Start
	for _, e := range p.Edges {
		fmt.Fprintf(&sb, " -%s-> %s", d.alpha.Name(e.Label), d.VertexName(e.To))
		cur = e.To
	}
	_ = cur
	return sb.String()
}

// Parse reads a database from text. Format:
//
//	# comment
//	alphabet a b c
//	u a v
//	v b w
//
// The alphabet line must come first (before any edge). Vertices are created
// on first mention. Lines are tokenised in the scanner's buffer (a name is
// copied once, when it is new) and the edges go to withEdges in one batch.
func Parse(r io.Reader) (*DB, error) {
	sc := bufio.NewScanner(r)
	var db *DB
	var triples []int32 // (source, label, target) per edge line
	if text, ok := r.(interface{ Len() int }); ok {
		// An in-memory text says how long it is: reserve for edge lines of 12
		// bytes ("v123 a v456\n"), which is at most the text's size again.
		triples = make([]int32, 0, text.Len()/12*3)
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		first, rest := nextField(line)
		if len(first) == 0 || first[0] == '#' {
			continue
		}
		if string(first) == "alphabet" {
			if db != nil {
				return nil, fmt.Errorf("graphdb: line %d: duplicate alphabet line", lineNo)
			}
			a, err := alphabet.New(strings.Fields(string(rest))...)
			if err != nil {
				return nil, fmt.Errorf("graphdb: line %d: %v", lineNo, err)
			}
			db = New(a)
			continue
		}
		if db == nil {
			return nil, fmt.Errorf("graphdb: line %d: alphabet line must come first", lineNo)
		}
		second, rest := nextField(rest)
		third, rest := nextField(rest)
		fourth, _ := nextField(rest)
		if string(first) == "vertex" {
			if len(second) == 0 || len(third) != 0 {
				return nil, fmt.Errorf("graphdb: line %d: vertex line needs one name", lineNo)
			}
			db.vertexNamed(second)
			continue
		}
		if len(third) == 0 || len(fourth) != 0 {
			return nil, fmt.Errorf("graphdb: line %d: want 'src label dst', got %q", lineNo, bytes.TrimSpace(line))
		}
		label, ok := db.alpha.Lookup(string(second))
		if !ok {
			return nil, fmt.Errorf("graphdb: line %d: unknown label %q", lineNo, second)
		}
		triples = append(triples, db.vertexNamed(first), int32(label), db.vertexNamed(third))
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("graphdb: line %d: line longer than %d bytes", lineNo+1, bufio.MaxScanTokenSize-1)
		}
		return nil, err
	}
	if db == nil {
		return nil, fmt.Errorf("graphdb: no alphabet line found")
	}
	return db.withEdges(triples)
}

// vertexNamed is EnsureVertex for Parse: it names the vertex and leaves its
// adjacency to withEdges.
func (d *DB) vertexNamed(name []byte) int32 {
	if v, ok := d.index[string(name)]; ok {
		return int32(v)
	}
	s := string(name)
	d.index[s] = len(d.names)
	d.names = append(d.names, s)
	return int32(len(d.names) - 1)
}

// nextField splits the first field off b the way strings.Fields would: fields
// are separated by unicode.IsSpace runes of the UTF-8 text.
func nextField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*DB, error) { return Parse(strings.NewReader(s)) }

// Format writes the database in the textual format accepted by Parse.
func (d *DB) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "alphabet %s\n", strings.Join(d.alpha.Names(), " ")); err != nil {
		return err
	}
	// Emit isolated vertices explicitly so round-tripping preserves them.
	for v := 0; v < d.NumVertices(); v++ {
		if len(d.out[v]) == 0 && len(d.in[v]) == 0 {
			if _, err := fmt.Fprintf(w, "vertex %s\n", d.VertexName(v)); err != nil {
				return err
			}
		}
	}
	type row struct {
		u, v int
		l    alphabet.Symbol
	}
	var rows []row
	for u := range d.out {
		for _, e := range d.out[u] {
			rows = append(rows, row{u, e.To, e.Label})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].u != rows[j].u {
			return rows[i].u < rows[j].u
		}
		if rows[i].l != rows[j].l {
			return rows[i].l < rows[j].l
		}
		return rows[i].v < rows[j].v
	})
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s %s %s\n", d.VertexName(r.u), d.alpha.Name(r.l), d.VertexName(r.v)); err != nil {
			return err
		}
	}
	return nil
}

// FormatString renders the database as text.
func (d *DB) FormatString() string {
	var sb strings.Builder
	_ = d.Format(&sb)
	return sb.String()
}

// CheckConsistency verifies the database's internal adjacency
// invariants: the names/out/in slices agree on the vertex count, the
// name index round-trips, the edge counter matches both adjacency
// directions, every edge endpoint and label is in range, and every
// outgoing edge has exactly one mirrored incoming edge. It exists for
// the integrity scrub: a content digest covers the out-adjacency
// records, while this check catches corruption the digest cannot see
// (a lost in-edge mirror, a poisoned name index). Cost is O(V+E).
func (d *DB) CheckConsistency() error {
	n := len(d.names)
	if len(d.out) != n || len(d.in) != n {
		return fmt.Errorf("graphdb: adjacency length mismatch: %d names, %d out, %d in", n, len(d.out), len(d.in))
	}
	for name, v := range d.index {
		if v < 0 || v >= n || d.names[v] != name {
			return fmt.Errorf("graphdb: name index maps %q to vertex %d which is not so named", name, v)
		}
	}
	for v, name := range d.names {
		if name == "" {
			continue
		}
		if got, ok := d.index[name]; !ok || got != v {
			return fmt.Errorf("graphdb: named vertex %d (%q) missing from index", v, name)
		}
	}
	// Count-based mirror check: each out edge (u,l,v) contributes +1 and
	// its in mirror at v contributes -1; everything must cancel.
	type ekey struct {
		u, v int
		l    alphabet.Symbol
	}
	balance := make(map[ekey]int)
	nOut, nIn := 0, 0
	for u, es := range d.out {
		for _, e := range es {
			if e.To < 0 || e.To >= n {
				return fmt.Errorf("graphdb: out edge %d->%d target out of range", u, e.To)
			}
			if !d.alpha.Contains(e.Label) {
				return fmt.Errorf("graphdb: out edge %d->%d label %d not in alphabet", u, e.To, e.Label)
			}
			balance[ekey{u, e.To, e.Label}]++
			nOut++
		}
	}
	for v, es := range d.in {
		for _, e := range es {
			if e.To < 0 || e.To >= n {
				return fmt.Errorf("graphdb: in edge %d<-%d source out of range", v, e.To)
			}
			balance[ekey{e.To, v, e.Label}]--
			nIn++
		}
	}
	if nOut != d.edges || nIn != d.edges {
		return fmt.Errorf("graphdb: edge counter %d disagrees with adjacency (%d out, %d in)", d.edges, nOut, nIn)
	}
	for k, c := range balance {
		if c != 0 {
			return fmt.Errorf("graphdb: edge (%d,%d,%d) out/in mirror imbalance %+d", k.u, k.l, k.v, c)
		}
	}
	return nil
}

// DisjointUnion adds a copy of other into d, returning the vertex-id offset
// of the copy. Both databases must share the same alphabet object (or equal
// symbol sets in the same order).
func (d *DB) DisjointUnion(other *DB) (int, error) {
	if d.alpha.Size() != other.alpha.Size() {
		return 0, fmt.Errorf("graphdb: alphabet size mismatch in union")
	}
	off := d.NumVertices()
	for v := 0; v < other.NumVertices(); v++ {
		// Names may clash; import anonymously.
		if _, err := d.AddVertex(""); err != nil {
			return 0, err
		}
	}
	for u := 0; u < other.NumVertices(); u++ {
		for _, e := range other.out[u] {
			if err := d.AddEdge(u+off, e.Label, e.To+off); err != nil {
				return 0, err
			}
		}
	}
	return off, nil
}

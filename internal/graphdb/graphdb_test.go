package graphdb

import (
	"bufio"
	"strings"
	"testing"

	"ecrpq/internal/alphabet"
)

func triangleDB(t *testing.T) *DB {
	t.Helper()
	db, err := ParseString(`
# a 3-cycle with chords
alphabet a b
x a y
y a z
z a x
x b z
`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestParseAndBasics(t *testing.T) {
	db := triangleDB(t)
	if db.NumVertices() != 3 {
		t.Fatalf("vertices = %d", db.NumVertices())
	}
	if db.NumEdges() != 4 {
		t.Fatalf("edges = %d", db.NumEdges())
	}
	x, ok := db.Lookup("x")
	if !ok {
		t.Fatal("lookup x")
	}
	z, _ := db.Lookup("z")
	bSym, _ := db.Alphabet().Lookup("b")
	if !db.HasEdge(x, bSym, z) {
		t.Error("edge x -b-> z missing")
	}
	if db.HasEdge(z, bSym, x) {
		t.Error("phantom edge")
	}
	if db.VertexName(x) != "x" {
		t.Errorf("VertexName = %q", db.VertexName(x))
	}
}

// parseErrorTexts are the malformed shapes Parse rejects.
var parseErrorTexts = []string{
	"x a y",                  // no alphabet line
	"alphabet a\nalphabet b", // duplicate alphabet
	"alphabet a\nx q y",      // unknown label
	"alphabet a\nx a",        // wrong arity
	"alphabet a\nvertex",     // bad vertex line
	"alphabet a a",           // duplicate symbol
	"",                       // empty
}

func TestParseErrors(t *testing.T) {
	for _, s := range parseErrorTexts {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) should fail", s)
		}
	}
	// A line past the scanner's token limit is reported with its position;
	// one byte shorter still parses.
	long := "alphabet a\nx a y\n# " + strings.Repeat("x", bufio.MaxScanTokenSize-3)
	if _, err := ParseString(long + "\ny a x\n"); err != nil {
		t.Errorf("a %d-byte line: %v", bufio.MaxScanTokenSize-1, err)
	}
	_, err := ParseString(long + "x\ny a x\n")
	if want := "graphdb: line 3: line longer than 65535 bytes"; err == nil || err.Error() != want {
		t.Errorf("a %d-byte line: error %v, want %q", bufio.MaxScanTokenSize, err, want)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	db := triangleDB(t)
	db.MustAddVertex("lonely")
	text := db.FormatString()
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if back.NumVertices() != db.NumVertices() || back.NumEdges() != db.NumEdges() {
		t.Errorf("round trip: %d/%d vertices, %d/%d edges",
			back.NumVertices(), db.NumVertices(), back.NumEdges(), db.NumEdges())
	}
	if !strings.Contains(text, "vertex lonely") {
		t.Error("isolated vertex not serialized")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	a := alphabet.Lower(1)
	db := New(a)
	v := db.MustAddVertex("v")
	if err := db.AddEdge(v, 0, 99); err == nil {
		t.Error("out-of-range target should fail")
	}
	if err := db.AddEdge(99, 0, v); err == nil {
		t.Error("out-of-range source should fail")
	}
	if err := db.AddEdge(v, 7, v); err == nil {
		t.Error("unknown label should fail")
	}
	db.MustAddEdge(v, 0, v)
	db.MustAddEdge(v, 0, v) // duplicate ignored
	if db.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1", db.NumEdges())
	}
}

func TestDuplicateVertexName(t *testing.T) {
	db := New(alphabet.Lower(1))
	db.MustAddVertex("v")
	if _, err := db.AddVertex("v"); err == nil {
		t.Error("duplicate name should fail")
	}
	// Anonymous vertices can repeat.
	db.MustAddVertex("")
	db.MustAddVertex("")
	if db.NumVertices() != 3 {
		t.Errorf("vertices = %d", db.NumVertices())
	}
}

func TestPathBasics(t *testing.T) {
	db := triangleDB(t)
	x, _ := db.Lookup("x")
	y, _ := db.Lookup("y")
	z, _ := db.Lookup("z")
	aSym, _ := db.Alphabet().Lookup("a")
	p := Path{Start: x, Edges: []Edge{{aSym, y}, {aSym, z}}}
	if !p.Valid(db) {
		t.Error("path should be valid")
	}
	if p.End() != z || p.Len() != 2 {
		t.Errorf("End=%d Len=%d", p.End(), p.Len())
	}
	if p.Label().Format(db.Alphabet()) != "aa" {
		t.Errorf("Label = %v", p.Label())
	}
	if got := p.Format(db); got != "x -a-> y -a-> z" {
		t.Errorf("Format = %q", got)
	}
	// Empty path.
	ep := Path{Start: x}
	if !ep.Valid(db) || ep.End() != x || len(ep.Label()) != 0 {
		t.Error("empty path semantics broken")
	}
	// Invalid path.
	bad := Path{Start: x, Edges: []Edge{{aSym, z}}}
	if bad.Valid(db) {
		t.Error("x -a-> z does not exist")
	}
	if (Path{Start: 99}).Valid(db) {
		t.Error("out-of-range start should be invalid")
	}
}

func TestDisjointUnion(t *testing.T) {
	db1 := triangleDB(t)
	db2 := triangleDB(t)
	n1, e1 := db1.NumVertices(), db1.NumEdges()
	off, err := db1.DisjointUnion(db2)
	if err != nil {
		t.Fatal(err)
	}
	if off != n1 {
		t.Errorf("offset = %d, want %d", off, n1)
	}
	if db1.NumVertices() != 2*n1 || db1.NumEdges() != 2*e1 {
		t.Errorf("union sizes wrong: %d vertices %d edges", db1.NumVertices(), db1.NumEdges())
	}
	// No cross edges: reachability from part 1 stays in part 1.
	x, _ := db1.Lookup("x")
	anyWord := func(alphabet.Word) bool { return true }
	for v := range naiveReach(db1, anyWord, x, db1.NumVertices()) {
		if v >= off {
			t.Errorf("cross-component reachability to %d", v)
		}
	}
}

// naive path search: all vertices reachable from src with label in lang,
// via brute-force DFS over paths up to a length bound. It reads Out, so it
// is independent of the forward layout.
func naiveReach(db *DB, accept func(alphabet.Word) bool, src, maxLen int) map[int]bool {
	out := make(map[int]bool)
	var rec func(v int, w alphabet.Word)
	rec = func(v int, w alphabet.Word) {
		if accept(w) {
			out[v] = true
		}
		if len(w) >= maxLen {
			return
		}
		for _, e := range db.Out(v) {
			rec(e.To, append(w, e.Label))
		}
	}
	rec(src, alphabet.Word{})
	return out
}

func TestDOT(t *testing.T) {
	db := triangleDB(t)
	dot := db.DOT("tri")
	for _, want := range []string{"digraph \"tri\"", "label=\"x\"", "label=\"a\""} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestCheckConsistency(t *testing.T) {
	db := triangleDB(t)
	if err := db.CheckConsistency(); err != nil {
		t.Fatalf("fresh db inconsistent: %v", err)
	}

	// A lost in-edge mirror (the kind of corruption a content digest over
	// out-adjacency cannot see) must be detected.
	broken := triangleDB(t)
	broken.in[0] = broken.in[0][:0]
	if err := broken.CheckConsistency(); err == nil {
		t.Fatal("dropped in-mirror not detected")
	}

	// A poisoned name index must be detected.
	broken = triangleDB(t)
	for name := range broken.index {
		broken.index[name] = (broken.index[name] + 1) % broken.NumVertices()
		break
	}
	if err := broken.CheckConsistency(); err == nil {
		t.Fatal("poisoned name index not detected")
	}

	// A wrong edge counter must be detected.
	broken = triangleDB(t)
	broken.edges++
	if err := broken.CheckConsistency(); err == nil {
		t.Fatal("wrong edge counter not detected")
	}
}

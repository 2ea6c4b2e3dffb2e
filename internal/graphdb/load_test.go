package graphdb

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ecrpq/internal/alphabet"
)

// referenceParse is the line-by-line parser Parse replaced, kept as the
// oracle: Text and strings.Fields per line, EnsureVertex and AddEdge per
// edge. Parse must agree with it on every text, errors included.
func referenceParse(text string) (*DB, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	var db *DB
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "alphabet" {
			if db != nil {
				return nil, fmt.Errorf("graphdb: line %d: duplicate alphabet line", lineNo)
			}
			a, err := alphabet.New(fields[1:]...)
			if err != nil {
				return nil, fmt.Errorf("graphdb: line %d: %v", lineNo, err)
			}
			db = New(a)
			continue
		}
		if db == nil {
			return nil, fmt.Errorf("graphdb: line %d: alphabet line must come first", lineNo)
		}
		if fields[0] == "vertex" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("graphdb: line %d: vertex line needs one name", lineNo)
			}
			db.EnsureVertex(fields[1])
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("graphdb: line %d: want 'src label dst', got %q", lineNo, line)
		}
		label, ok := db.alpha.Lookup(fields[1])
		if !ok {
			return nil, fmt.Errorf("graphdb: line %d: unknown label %q", lineNo, fields[1])
		}
		if err := db.AddEdge(db.EnsureVertex(fields[0]), label, db.EnsureVertex(fields[2])); err != nil {
			return nil, fmt.Errorf("graphdb: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if db == nil {
		return nil, fmt.Errorf("graphdb: no alphabet line found")
	}
	return db, nil
}

// sameDB reports the first difference between two databases as their users
// see them: alphabet, names and ids, edge count, the element order of every
// Out, In and Forward().Succ list, and internal consistency.
func sameDB(got, want *DB) error {
	if g, w := got.Alphabet().Names(), want.Alphabet().Names(); !slices.Equal(g, w) {
		return fmt.Errorf("alphabet %v, want %v", g, w)
	}
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("%d vertices and %d edges, want %d and %d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	gf, wf := got.Forward(), want.Forward()
	for v := 0; v < want.NumVertices(); v++ {
		name := want.RawVertexName(v)
		if got.RawVertexName(v) != name {
			return fmt.Errorf("vertex %d is named %q, want %q", v, got.RawVertexName(v), name)
		}
		if id, ok := got.Lookup(name); name != "" && (!ok || id != v) {
			return fmt.Errorf("Lookup(%q) = %d, %v, want %d", name, id, ok, v)
		}
		if !slices.Equal(got.Out(v), want.Out(v)) {
			return fmt.Errorf("Out(%d) = %v, want %v", v, got.Out(v), want.Out(v))
		}
		if !slices.Equal(got.In(v), want.In(v)) {
			return fmt.Errorf("In(%d) = %v, want %v", v, got.In(v), want.In(v))
		}
		for _, l := range want.Alphabet().Symbols() {
			if !slices.Equal(gf.Succ(v, l), wf.Succ(v, l)) {
				return fmt.Errorf("Succ(%d, %d) = %v, want %v", v, l, gf.Succ(v, l), wf.Succ(v, l))
			}
		}
	}
	return got.CheckConsistency()
}

// checkParse holds Parse to the reference on one text: the same error, or
// the same database.
func checkParse(t *testing.T, text string) {
	t.Helper()
	want, wantErr := referenceParse(text)
	got, err := ParseString(text)
	if errors.Is(wantErr, bufio.ErrTooLong) { // the one rejection that gained a position
		if err == nil || !strings.HasSuffix(err.Error(), ": line longer than 65535 bytes") {
			t.Fatalf("Parse of a text with an over-long line: error %v", err)
		}
		return
	}
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("Parse(%q): error %v, the reference gives %v", text, err, wantErr)
		}
		return
	}
	if err := sameDB(got, want); err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
}

// randomText writes a database text that exercises the tokeniser: comment,
// blank and CRLF lines, tabs and non-ASCII whitespace between fields, vertex
// lines, repeated edges, names that collide with the keywords and labels or
// are not valid UTF-8, and now and then one of the malformed lines.
func randomText(rng *rand.Rand) string {
	pick := func(s []string) string { return oneOf(rng, s) }
	labels := []string{"a", "b", "c", "long-label"}[:1+rng.Intn(4)]
	pool := []string{"vertex", "alphabet", "a", "b", "#x", "é", "日本", "\xff", "x\xe2\x80", "v"}
	for i := rng.Intn(12); i > 0; i-- {
		pool = append(pool, fmt.Sprintf("v%d", i))
	}
	seps := []string{" ", "  ", "\t", " \t ", " ", " ", "", "　", "\v", "\f"}
	ends := []string{"\n", "\n", "\n", "\r\n", " \n", "\t\r\n"}
	var sb strings.Builder
	line := func(fields ...string) {
		if rng.Intn(4) == 0 {
			sb.WriteString(pick(seps))
		}
		for i, f := range fields {
			if i > 0 {
				sb.WriteString(pick(seps))
			}
			sb.WriteString(f)
		}
		sb.WriteString(pick(ends))
	}
	if rng.Intn(40) != 0 { // else the text has no alphabet line, or a late one
		if rng.Intn(3) == 0 {
			line("# header")
		}
		line(append([]string{"alphabet"}, labels...)...)
	}
	var edges [][]string
	for n := rng.Intn(40); n > 0; n-- {
		switch r := rng.Intn(100); {
		case r < 55:
			e := []string{pick(pool[2:]), pick(labels), pick(pool)}
			edges = append(edges, e)
			line(e...)
		case r < 70 && len(edges) > 0:
			line(oneOf(rng, edges)...)
		case r < 78:
			line("vertex", pick(pool))
		case r < 84:
			line("#", pick(pool), "a", pick(pool))
		case r < 90:
			sb.WriteString(pick([]string{"", " ", "\t", "　"}) + pick(ends))
		case r < 92:
			line(pick(pool[2:]), "nolabel", pick(pool))
		case r < 94:
			line(oneOf(rng, [][]string{{"x", "a"}, {"x"}, {"x", "a", "y", "z"}, {"vertex"}, {"vertex", "p", "q"}, {"vertex", "p", "q", "r"}})...)
		case r < 95:
			line(oneOf(rng, [][]string{{"alphabet", "z"}, {"alphabet"}, {"alphabet", "a", "a"}, {"alphabet", "a", "x"}})...)
		}
	}
	text := sb.String()
	if rng.Intn(5) == 0 {
		text = strings.TrimRight(text, "\r\n") // last line unterminated
	}
	return text
}

func oneOf[T any](rng *rand.Rand, s []T) T { return s[rng.Intn(len(s))] }

func TestParseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	failed := 0
	for i := 0; i < 5000; i++ {
		text := randomText(rng)
		checkParse(t, text)
		if _, err := ParseString(text); err != nil {
			failed++
		}
	}
	if failed < 500 || failed > 4000 {
		t.Errorf("%d of 5000 texts are rejected: the generator no longer mixes accepted and rejected texts", failed)
	}
	for _, text := range parseErrorTexts {
		checkParse(t, text)
	}
}

// TestLoadMatchesAddEdge is the constructor against the AddVertex/AddEdge
// sequence it stands for, on graphs with repeats, loops and isolated and
// anonymous vertices.
func TestLoadMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		a := alphabet.Lower(1 + rng.Intn(4))
		n := rng.Intn(40)
		names := make([]string, n)
		want := New(a)
		for v := range names {
			if rng.Intn(3) > 0 {
				names[v] = fmt.Sprintf("n%d", v)
			}
			want.MustAddVertex(names[v])
		}
		var triples []int32
		for e := rng.Intn(4*n + 1); e > 0 && n > 0; e-- {
			u, l, v := rng.Intn(n), rng.Intn(a.Size()), rng.Intn(1+rng.Intn(n))
			triples = append(triples, int32(u), int32(l), int32(v))
			want.MustAddEdge(u, alphabet.Symbol(l), v)
		}
		got, err := Load(a, names, triples)
		if err != nil {
			t.Fatalf("graph %d: Load: %v", i, err)
		}
		if err := sameDB(got, want); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
	}
}

// TestLoadRejects: the constructor validates its arguments itself and
// answers with an error, never an index out of range.
func TestLoadRejects(t *testing.T) {
	a := alphabet.Lower(2)
	for _, tc := range []struct {
		what    string
		names   []string
		triples []int32
	}{
		{"duplicate name", []string{"x", "", "", "x"}, nil},
		{"source == vertex count", []string{"x", "y"}, []int32{2, 0, 0}},
		{"target == vertex count", []string{"x", "y"}, []int32{0, 0, 2}},
		{"negative source", []string{"x", "y"}, []int32{-1, 0, 0}},
		{"negative target", []string{"x", "y"}, []int32{0, 0, -1}},
		{"label == alphabet size", []string{"x", "y"}, []int32{0, 2, 1}},
		{"negative label", []string{"x", "y"}, []int32{0, -1, 1}},
		{"edge with no vertices", nil, []int32{0, 0, 0}},
	} {
		if db, err := Load(a, tc.names, tc.triples); err == nil {
			t.Errorf("%s: Load built a database of %d vertices", tc.what, db.NumVertices())
		}
	}
}

// TestMutationAfterParse is the clipped-capacity trap: the lists of a parsed
// database share two arrays, so an append must move the list it grows, not
// write into its neighbour, and must drop the forward layout.
func TestMutationAfterParse(t *testing.T) {
	const text = "alphabet a b\nx a y\nx b z\ny a z\nz a x\nz b y\n"
	db, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceParse(text)
	old := db.Forward()
	w := db.MustAddVertex("w")
	want.MustAddVertex("w")
	if db.Forward() == old {
		t.Error("AddVertex kept the forward layout")
	}
	old = db.Forward()
	for _, e := range [][3]int{{0, 1, 0}, {1, 1, 1}, {2, 0, 2}, {0, 0, w}, {w, 1, 1}, {0, 0, 1}} {
		db.MustAddEdge(e[0], alphabet.Symbol(e[1]), e[2])
		want.MustAddEdge(e[0], alphabet.Symbol(e[1]), e[2])
		if err := sameDB(db, want); err != nil {
			t.Fatalf("after AddEdge%v: %v", e, err)
		}
	}
	if db.Forward() == old {
		t.Error("AddEdge kept the forward layout")
	}
}

// shuffledText is a database text of v vertices and e distinct edges over
// {a, b, c} with its edge lines in random order.
func shuffledText(v, e int) string {
	rng := rand.New(rand.NewSource(int64(v)*31 + int64(e)))
	lines := make([]string, 0, e)
	seen := make(map[[3]int]bool, e)
	for len(lines) < e {
		k := [3]int{rng.Intn(v), rng.Intn(3), rng.Intn(v)}
		if !seen[k] {
			seen[k] = true
			lines = append(lines, fmt.Sprintf("v%d %c v%d\n", k[0], 'a'+k[1], k[2]))
		}
	}
	return "alphabet a b c\n" + strings.Join(lines, "")
}

// TestParseAllocsPerEdge: ten times the edge lines over the same vertices
// cost a few more doublings of one array, not an allocation per line.
func TestParseAllocsPerEdge(t *testing.T) {
	allocs := func(text string) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := ParseString(text); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(shuffledText(100, 300)), allocs(shuffledText(100, 3000))
	if big-small > 16 {
		t.Errorf("Parse allocates %.0f times at E = 300 and %.0f at E = 3000 over the same 100 vertices", small, big)
	}
}

var sinkDB *DB

func BenchmarkParse(b *testing.B) {
	for _, size := range [][2]int{{2000, 6000}, {20000, 60000}} {
		text := shuffledText(size[0], size[1])
		b.Run(fmt.Sprintf("V%d_E%d", size[0], size[1]), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				db, err := ParseString(text)
				if err != nil {
					b.Fatal(err)
				}
				sinkDB = db
			}
		})
	}
}

package cq

import (
	"context"
	"errors"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// collectAnswers drains StreamAnswers and returns its rows lex-sorted for
// comparison against AllAnswers.
func collectAnswers(t *testing.T, s *Structure, q *Query) [][]int {
	t.Helper()
	var rows [][]int
	err := StreamAnswers(s, q, nil, func(row []int) bool {
		rows = append(rows, slices.Clone(row))
		return true
	})
	if err != nil {
		t.Fatalf("StreamAnswers: %v", err)
	}
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
	return rows
}

func TestStreamAnswersMatchesAllAnswersRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		dom := 2 + rng.Intn(4)
		s := NewStructure(dom)
		if err := s.AddRelation("E", 2); err != nil {
			t.Fatal(err)
		}
		if err := s.AddRelation("U", 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2+rng.Intn(2*dom*dom); i++ {
			s.MustAddTuple("E", rng.Intn(dom), rng.Intn(dom))
		}
		for i := 0; i < 1+rng.Intn(dom); i++ {
			s.MustAddTuple("U", rng.Intn(dom))
		}
		q := &Query{
			Atoms: []Atom{
				{Rel: "E", Args: []string{"x", "y"}},
				{Rel: "E", Args: []string{"y", "z"}},
				{Rel: "U", Args: []string{"x"}},
			},
			Free: []string{"x", "z"},
		}
		want, err := AllAnswers(context.Background(), s, q)
		if err != nil {
			t.Fatalf("trial %d: AllAnswers: %v", trial, err)
		}
		got := collectAnswers(t, s, q)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: stream %v, materialized %v", trial, got, want)
		}
	}
}

func TestStreamAnswersRepeatedVarInAtom(t *testing.T) {
	s := NewStructure(3)
	if err := s.AddRelation("E", 2); err != nil {
		t.Fatal(err)
	}
	s.MustAddTuple("E", 0, 1)
	s.MustAddTuple("E", 1, 1)
	s.MustAddTuple("E", 2, 2)
	q := &Query{Atoms: []Atom{{Rel: "E", Args: []string{"x", "x"}}}, Free: []string{"x"}}
	got := collectAnswers(t, s, q)
	want := [][]int{{1}, {2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestStreamAnswersDisjointAtoms(t *testing.T) {
	// Two atoms sharing no variables exercise the buffered hash-join level.
	s := NewStructure(4)
	if err := s.AddRelation("A", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRelation("B", 1); err != nil {
		t.Fatal(err)
	}
	s.MustAddTuple("A", 0)
	s.MustAddTuple("A", 1)
	s.MustAddTuple("B", 2)
	s.MustAddTuple("B", 3)
	q := &Query{
		Atoms: []Atom{{Rel: "A", Args: []string{"x"}}, {Rel: "B", Args: []string{"y"}}},
		Free:  []string{"x", "y"},
	}
	got := collectAnswers(t, s, q)
	want := [][]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestStreamAnswersBoolean(t *testing.T) {
	s := NewStructure(2)
	if err := s.AddRelation("E", 2); err != nil {
		t.Fatal(err)
	}
	q := &Query{Atoms: []Atom{{Rel: "E", Args: []string{"x", "y"}}}}

	got := collectAnswers(t, s, q) // no tuples: unsatisfiable
	if len(got) != 0 {
		t.Fatalf("unsat Boolean query yielded %v", got)
	}
	s.MustAddTuple("E", 0, 1)
	s.MustAddTuple("E", 1, 0)
	got = collectAnswers(t, s, q) // sat: exactly one empty tuple despite 2 derivations
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("sat Boolean query yielded %v, want one empty tuple", got)
	}
}

func TestStreamAnswersUnconstrainedFree(t *testing.T) {
	s := NewStructure(2)
	if err := s.AddRelation("E", 2); err != nil {
		t.Fatal(err)
	}
	q := &Query{Atoms: []Atom{{Rel: "E", Args: []string{"x", "y"}}}, Free: []string{"w"}}
	err := StreamAnswers(s, q, nil, func([]int) bool { return true })
	if !errors.Is(err, ErrUnconstrained) {
		t.Fatalf("err = %v, want ErrUnconstrained", err)
	}
}

func TestStreamAssignmentsFirstWitnessIsLazy(t *testing.T) {
	// The first assignment must not force a full scan of the first atom:
	// count tuples pulled through the source.
	s := NewStructure(100)
	if err := s.AddRelation("E", 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 99; i++ {
		s.MustAddTuple("E", i, i+1)
	}
	q := &Query{Atoms: []Atom{
		{Rel: "E", Args: []string{"x", "y"}},
		{Rel: "E", Args: []string{"y", "z"}},
	}}
	src := &countingSource{inner: s}
	witnesses := 0
	if _, err := StreamAssignments(src, q, nil, func([]int) bool { witnesses++; return false }); err != nil {
		t.Fatal(err)
	}
	if witnesses != 1 {
		t.Fatalf("expected one witness, got %d", witnesses)
	}
	if src.pulled > 10 {
		t.Fatalf("first witness pulled %d source tuples, want a handful", src.pulled)
	}
}

// countingSource counts the tuples each relation's scans hand out.
type countingSource struct {
	inner  AtomSource
	pulled int
	scans  map[string]int
	bounds [][]int // every Scan's bound pattern, in order
}

func (c *countingSource) Scan(rel string, bound []int, yield func([]int) bool) error {
	if c.scans == nil {
		c.scans = make(map[string]int)
	}
	c.scans[rel]++
	c.bounds = append(c.bounds, slices.Clone(bound))
	return c.inner.Scan(rel, bound, func(tup []int) bool { c.pulled++; return yield(tup) })
}

// twoUnary is the structure A = as, B = bs over domain 8, and the query
// A(x), B(y) whose second atom shares no variable with the first.
func twoUnary(t *testing.T, as, bs []int) (*Structure, *Query) {
	t.Helper()
	s := NewStructure(8)
	for rel, vals := range map[string][]int{"A": as, "B": bs} {
		if err := s.AddRelation(rel, 1); err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			s.MustAddTuple(rel, v)
		}
	}
	return s, &Query{
		Atoms: []Atom{{Rel: "A", Args: []string{"x"}}, {Rel: "B", Args: []string{"y"}}},
		Free:  []string{"x", "y"},
	}
}

// TestStreamDisjointLevelWaitsForPrefix: a prefix-disjoint level is scanned
// on the first prefix row that reaches it — never when the prefix has no
// row, and once however many prefix rows there are.
func TestStreamDisjointLevelWaitsForPrefix(t *testing.T) {
	for _, as := range [][]int{nil, {0, 1, 2}} {
		s, q := twoUnary(t, as, []int{5, 6})
		src := &countingSource{inner: s}
		rows := 0
		if err := StreamAnswers(src, q, nil, func([]int) bool { rows++; return true }); err != nil {
			t.Fatal(err)
		}
		want := 0
		if len(as) > 0 {
			want = 1
		}
		if src.scans["B"] != want || rows != 2*len(as) {
			t.Errorf("A = %v: B scanned %d times, %d answers; want %d scans and %d answers", as, src.scans["B"], rows, want, 2*len(as))
		}
	}
}

// TestStreamAnswersCutsRepeats: once a row is complete, the levels past
// the last one that binds a free variable end their scans — what they have
// left can only derive the same answer again — and the levels up to it go
// on. A Boolean query stops at its first row.
//
// A level that binds no free variable the answers still miss skips a row
// whose free values and columns later levels read it has expanded before.
// In A(x), E(x,z), F(z,y) with x, y free, where both z join each (x, y),
// no level follows F, the last to bind a free variable, so nothing can be
// skipped; listed E, F, A, the query's A scan runs once per answer, not
// once per derivation.
func TestStreamAnswersCutsRepeats(t *testing.T) {
	s := NewStructure(8)
	for rel, rows := range map[string][][]int{
		"A": {{0}, {1}}, "E": {{0, 5}, {0, 6}, {1, 5}, {1, 6}}, "B": {{5}, {6}}, "F": {{5, 2}, {5, 3}, {6, 2}, {6, 3}},
	} {
		if err := s.AddRelation(rel, len(rows[0])); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			s.MustAddTuple(rel, r...)
		}
	}
	at := func(rel string, args ...string) Atom { return Atom{Rel: rel, Args: args} }
	atoms := []Atom{at("A", "x"), at("E", "x", "y"), at("B", "y")}
	for _, tc := range []struct {
		atoms    []Atom // nil: A(x), E(x,y), B(y)
		free     []string
		answers  int
		pulledBy map[string]int // tuples each relation's scans handed out
	}{
		{nil, []string{"x"}, 2, map[string]int{"A": 2, "E": 2, "B": 2}},
		{nil, []string{"x", "y"}, 4, map[string]int{"A": 2, "E": 4, "B": 4}},
		{nil, nil, 1, map[string]int{"A": 1, "E": 1, "B": 1}},
		{[]Atom{at("A", "x"), at("E", "x", "z"), at("F", "z", "y")}, []string{"x", "y"}, 4, map[string]int{"A": 2, "E": 4, "F": 8}},
		{[]Atom{at("E", "x", "z"), at("F", "z", "y"), at("A", "x")}, []string{"x", "y"}, 4, map[string]int{"E": 4, "F": 8, "A": 4}},
	} {
		if tc.atoms == nil {
			tc.atoms = atoms
		}
		pulled := map[string]int{}
		src := sourceFunc(func(rel string, bound []int, yield func([]int) bool) error {
			return s.Scan(rel, bound, func(tup []int) bool { pulled[rel]++; return yield(tup) })
		})
		answers := 0
		if err := StreamAnswers(src, &Query{Atoms: tc.atoms, Free: tc.free}, nil, func([]int) bool { answers++; return true }); err != nil {
			t.Fatal(err)
		}
		if answers != tc.answers || !maps.Equal(pulled, tc.pulledBy) {
			t.Errorf("%v free %v: %d answers, tuples pulled %v; want %d and %v", tc.atoms, tc.free, answers, pulled, tc.answers, tc.pulledBy)
		}
	}
}

type sourceFunc func(rel string, bound []int, yield func([]int) bool) error

func (f sourceFunc) Scan(rel string, bound []int, yield func([]int) bool) error {
	return f(rel, bound, yield)
}

// TestStreamPushdown: a level sharing a variable with the prefix scans its
// atom once per prefix row with that row's binding pushed down.
func TestStreamPushdown(t *testing.T) {
	s := NewStructure(4)
	if err := s.AddRelation("E", 2); err != nil {
		t.Fatal(err)
	}
	s.MustAddTuple("E", 0, 1)
	s.MustAddTuple("E", 1, 2)
	s.MustAddTuple("E", 1, 3)
	q := &Query{Atoms: []Atom{{Rel: "E", Args: []string{"x", "y"}}, {Rel: "E", Args: []string{"y", "z"}}}}
	src := &countingSource{inner: s}
	var got [][]int
	vars, err := StreamAssignments(src, q, nil, func(row []int) bool { got = append(got, slices.Clone(row)); return true })
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"x", "y", "z"}; !reflect.DeepEqual(vars, want) {
		t.Fatalf("vars %v, want %v", vars, want)
	}
	if want := [][]int{{0, 1, 2}, {0, 1, 3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("assignments %v, want %v", got, want)
	}
	if want := [][]int{{-1, -1}, {1, -1}, {2, -1}, {3, -1}}; !reflect.DeepEqual(src.bounds, want) {
		t.Errorf("bound patterns %v, want %v", src.bounds, want)
	}
}

// failingSource fails every Scan of one relation.
type failingSource struct {
	AtomSource
	rel string
	err error
}

func (f failingSource) Scan(rel string, bound []int, yield func([]int) bool) error {
	if rel == f.rel {
		return f.err
	}
	return f.AtomSource.Scan(rel, bound, yield)
}

// TestStreamScanError: a scan's error ends the walk and is returned, for a
// pushed-down level and a buffered one alike.
func TestStreamScanError(t *testing.T) {
	boom := errors.New("scan failed")
	s, q := twoUnary(t, []int{0}, []int{1})
	for _, rel := range []string{"A", "B"} {
		err := StreamAnswers(failingSource{s, rel, boom}, q, nil, func([]int) bool {
			t.Fatalf("%s fails: an answer was yielded", rel)
			return false
		})
		if !errors.Is(err, boom) {
			t.Errorf("%s fails: err = %v", rel, err)
		}
	}
}

// ledger is a ChargeFunc that refuses the charge after allow of them and
// tracks what it holds.
type ledger struct {
	allow, calls int
	held, peak   int64
}

var errRefused = errors.New("refused")

func (l *ledger) charge(delta int64) error {
	if delta > 0 {
		if l.calls++; l.calls > l.allow {
			return errRefused
		}
	}
	l.held += delta
	l.peak = max(l.peak, l.held)
	return nil
}

// TestStreamBufferChargeDenial: a refused disjoint-buffer row ends the walk
// with the refusal before any answer, holding exactly the rows charged
// before it, and nothing is charged after it.
func TestStreamBufferChargeDenial(t *testing.T) {
	s, q := twoUnary(t, []int{0, 1}, []int{5, 6, 7})
	// B's 3 buffered rows are charged 48+16 bytes each before any answer.
	for _, allow := range []int{0, 1, 2} {
		l := &ledger{allow: allow}
		rows := 0
		err := StreamAnswers(s, q, l.charge, func([]int) bool { rows++; return true })
		if !errors.Is(err, errRefused) || rows != 0 || l.peak != int64(allow)*64 || l.calls != allow+1 {
			t.Errorf("allow %d: err %v after %d answers holding %d bytes and %d charges; want the refusal before any answer holding %d, and no charge after it",
				allow, err, rows, l.peak, l.calls, allow*64)
		}
		if l.held != 0 {
			t.Errorf("allow %d: %d bytes still held after the walk", allow, l.held)
		}
	}
}

// TestStreamDedupChargeDenial: a refused seen-set entry ends the walk with
// the refusal after exactly the answers charged before it.
func TestStreamDedupChargeDenial(t *testing.T) {
	s := NewStructure(4)
	if err := s.AddRelation("A", 1); err != nil {
		t.Fatal(err)
	}
	s.MustAddTuple("A", 1)
	s.MustAddTuple("A", 2)
	q := &Query{Atoms: []Atom{{Rel: "A", Args: []string{"x"}}}, Free: []string{"x"}}
	l := &ledger{allow: 1}
	var got [][]int
	err := StreamAnswers(s, q, l.charge, func(row []int) bool { got = append(got, slices.Clone(row)); return true })
	if !errors.Is(err, errRefused) || !reflect.DeepEqual(got, [][]int{{1}}) || l.peak != 64+4 || l.calls != 2 {
		t.Errorf("err %v after answers %v holding %d bytes and %d charges; want the refusal after [[1]] holding 68, and no charge after it",
			err, got, l.peak, l.calls)
	}

	// Behind a buffered level: B's 3 rows (64 bytes each), then 72 bytes a
	// dedup entry, the third refused.
	s, q = twoUnary(t, []int{0, 1}, []int{5, 6, 7})
	l = &ledger{allow: 5}
	rows := 0
	err = StreamAnswers(s, q, l.charge, func([]int) bool { rows++; return true })
	if !errors.Is(err, errRefused) || rows != 2 || l.peak != 3*64+2*72 || l.calls != 6 {
		t.Errorf("buffered: err %v after %d answers holding %d bytes and %d charges; want the refusal after 2 answers holding %d, and no charge after it",
			err, rows, l.peak, l.calls, 3*64+2*72)
	}
}

// TestStreamEarlyStopReleasesBuffer: a consumer stopping mid-walk leaves the
// disjoint level's buffer uncharged when the walk returns.
func TestStreamEarlyStopReleasesBuffer(t *testing.T) {
	s, q := twoUnary(t, []int{0, 1, 2}, []int{5, 6})
	src := &countingSource{inner: s}
	l := &ledger{allow: math.MaxInt}
	if _, err := StreamAssignments(src, q, l.charge, func([]int) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if l.peak != 2*64 || l.held != 0 {
		t.Errorf("buffer charged %d bytes at peak, %d still held after the walk; want 128 and 0", l.peak, l.held)
	}
	if src.pulled != 3 { // A's first row and B's two
		t.Errorf("an early stop after the first assignment pulled %d tuples, want 3", src.pulled)
	}
}

// activeSource tracks the Scans that have begun and not yet returned.
type activeSource struct {
	countingSource
	active, maxActive int
}

func (a *activeSource) Scan(rel string, bound []int, yield func([]int) bool) error {
	a.active++
	a.maxActive = max(a.maxActive, a.active)
	defer func() { a.active-- }()
	return a.countingSource.Scan(rel, bound, yield)
}

// TestStreamEarlyStopEndsScans: a consumer stopping mid-walk, while an
// inner pushed-down scan still has tuples, ends that scan and every outer
// one: each Scan has returned, having handed out no tuple past the stop.
func TestStreamEarlyStopEndsScans(t *testing.T) {
	s := NewStructure(4)
	for rel, arity := range map[string]int{"A": 1, "E": 2} {
		if err := s.AddRelation(rel, arity); err != nil {
			t.Fatal(err)
		}
	}
	s.MustAddTuple("A", 0)
	s.MustAddTuple("A", 1)
	s.MustAddTuple("E", 0, 2)
	s.MustAddTuple("E", 0, 3)
	q := &Query{Atoms: []Atom{{Rel: "A", Args: []string{"x"}}, {Rel: "E", Args: []string{"x", "y"}}}}
	src := &activeSource{countingSource: countingSource{inner: s}}
	var got [][]int
	if _, err := StreamAssignments(src, q, nil, func(row []int) bool { got = append(got, slices.Clone(row)); return false }); err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0, 2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("assignments %v, want %v", got, want)
	}
	if src.active != 0 || src.maxActive != 2 {
		t.Errorf("%d Scans still running after the walk (%d at most); want 0 (2)", src.active, src.maxActive)
	}
	if src.pulled != 2 || src.scans["A"] != 1 || src.scans["E"] != 1 {
		t.Errorf("%d tuples pulled by scans %v; want 2, one Scan of each relation", src.pulled, src.scans)
	}
}

// TestStreamDisjointCrossProductOrder: a disjoint level joins as the cross
// product of its prefix and its buffer, the prefix's rows outermost.
func TestStreamDisjointCrossProductOrder(t *testing.T) {
	s, q := twoUnary(t, []int{1, 2}, []int{5, 6})
	var got [][]int
	vars, err := StreamAssignments(s, q, nil, func(row []int) bool { got = append(got, slices.Clone(row)); return true })
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"x", "y"}; !reflect.DeepEqual(vars, want) {
		t.Fatalf("vars %v, want %v", vars, want)
	}
	if want := [][]int{{1, 5}, {1, 6}, {2, 5}, {2, 6}}; !reflect.DeepEqual(got, want) {
		t.Errorf("assignments %v, want %v", got, want)
	}
}

// TestStreamAnswersProjectDedup: answers project onto the free variables
// and drop repeats, first derivation first; a bound Scan filters the
// relation to the tuples matching its pattern.
func TestStreamAnswersProjectDedup(t *testing.T) {
	s := NewStructure(31)
	if err := s.AddRelation("E", 2); err != nil {
		t.Fatal(err)
	}
	for _, tup := range [][2]int{{1, 10}, {2, 20}, {1, 30}, {3, 10}} {
		s.MustAddTuple("E", tup[0], tup[1])
	}
	q := &Query{Atoms: []Atom{{Rel: "E", Args: []string{"x", "y"}}}, Free: []string{"x"}}
	var got [][]int
	if err := StreamAnswers(s, q, nil, func(row []int) bool { got = append(got, slices.Clone(row)); return true }); err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{1}, {2}, {3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("projected answers %v, want %v", got, want)
	}
	got = nil
	if err := s.Scan("E", []int{-1, 10}, func(tup []int) bool { got = append(got, slices.Clone(tup)); return true }); err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{1, 10}, {3, 10}}; !reflect.DeepEqual(got, want) {
		t.Errorf("E(_, 10) scanned %v, want %v", got, want)
	}
}

// cycleSource is the relation E = {(i, i+1 mod n)} as an AtomSource whose
// Scans allocate nothing.
type cycleSource struct {
	n   int
	buf []int
}

func (c *cycleSource) Scan(_ string, bound []int, yield func([]int) bool) error {
	for i := 0; i < c.n; i++ {
		c.buf[0], c.buf[1] = i, (i+1)%c.n
		if (bound[0] < 0 || bound[0] == c.buf[0]) && (bound[1] < 0 || bound[1] == c.buf[1]) && !yield(c.buf) {
			return nil
		}
	}
	return nil
}

// TestStreamWalkAllocs: a walk's allocations do not grow with its prefix
// rows. Three levels over an n-cycle reach levels two and three with n
// prefix rows each; a callback built per prefix row cost one allocation
// each.
func TestStreamWalkAllocs(t *testing.T) {
	e := func(a, b string) Atom { return Atom{Rel: "E", Args: []string{a, b}} }
	q := &Query{Atoms: []Atom{e("x", "y"), e("y", "z"), e("z", "w")}}
	allocs := func(n int) float64 {
		src, rows := &cycleSource{n: n, buf: make([]int, 2)}, 0
		a := testing.AllocsPerRun(10, func() {
			rows = 0
			if _, err := StreamAssignments(src, q, nil, func([]int) bool { rows++; return true }); err != nil {
				t.Fatal(err)
			}
		})
		if rows != n {
			t.Fatalf("%d-cycle: %d assignments, want %d", n, rows, n)
		}
		return a
	}
	if few, many := allocs(4), allocs(400); many > few {
		t.Errorf("a 3-level walk allocates %.0f times over 4 prefix rows a level and %.0f over 400", few, many)
	}
}

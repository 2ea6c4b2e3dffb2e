package cq

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// What the answer walk has to get right that trying every candidate tuple
// got for free, and that its work follows the tables and the answers, not
// Domain^|Free| (`make join-gate` runs both, and the fuzz target's corpus).

// walkShapes are query shapes chosen by where their free variables sit in
// the decomposition. R1–R3 have the arity of their name.
func walkShapes() map[string]*Query {
	at := func(rel string, args ...string) Atom { return Atom{Rel: rel, Args: args} }
	path := []Atom{at("R2", "x0", "x1"), at("S2", "x1", "x2"), at("R2", "x2", "x3"), at("S2", "x3", "x4")}
	cycle := []Atom{at("R2", "a", "b"), at("S2", "b", "c"), at("R2", "c", "d"), at("S2", "d", "f"), at("R2", "f", "a")}
	shapes := map[string]*Query{
		// Free variables in different bags with existential-only bags between
		// them: the front carries a separator the answers do not have.
		"path-ends":      {Atoms: path, Free: []string{"x0", "x4"}},
		"path-ends-mid":  {Atoms: path, Free: []string{"x4", "x2", "x0"}},
		"path-inner":     {Atoms: path, Free: []string{"x3"}},
		"wide-separator": {Atoms: []Atom{at("R3", "x", "u", "v"), at("R3", "u", "v", "y"), at("R1", "y")}, Free: []string{"y", "x"}},
		// A free variable repeated across atoms and inside one.
		"repeated": {Atoms: []Atom{at("R3", "x", "x", "y"), at("S2", "y", "x"), at("R1", "x")}, Free: []string{"x", "y"}},
		"diagonal": {Atoms: []Atom{at("R2", "x", "x")}, Free: []string{"x"}},
		// Two trees with free variables in both, and a Boolean-only tree beside
		// them whose relation is empty on some seeds.
		"two-roots": {Atoms: []Atom{at("R2", "x", "y"), at("S2", "z", "w"), at("R3", "p", "q", "p")}, Free: []string{"w", "x"}},
		"product":   {Atoms: []Atom{at("R1", "x"), at("R1", "y"), at("S2", "z", "z")}, Free: []string{"x", "y", "z"}},
	}
	// A 5-cycle's decomposition extends a bag over a variable none of its
	// atoms mentions; each variable in turn is the free one, and one pair.
	for _, v := range []string{"a", "b", "c", "d", "f"} {
		shapes["cycle-"+v] = &Query{Atoms: cycle, Free: []string{v}}
	}
	shapes["cycle-bd"] = &Query{Atoms: cycle, Free: []string{"b", "d"}}
	return shapes
}

// walkStructure holds random relations R1, R2, S2, R3 over a domain of dom
// values — none at all when dom is 0.
func walkStructure(rng *rand.Rand, dom int) *Structure {
	s := NewStructure(dom)
	for _, r := range []struct {
		name  string
		arity int
	}{{"R1", 1}, {"R2", 2}, {"S2", 2}, {"R3", 3}} {
		addRandomRelation(rng, s, r.name, r.arity)
	}
	return s
}

func TestPlanAnswersWalk(t *testing.T) {
	ctx := context.Background()
	answers := 0
	for name, q := range walkShapes() {
		p, err := Compile(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "path-ends" && len(p.walk) < 3 {
			t.Errorf("%s: %d walked bags: the free variables are no longer bags apart", name, len(p.walk))
		}
		for dom := 0; dom <= 4; dom++ {
			for seed := int64(0); seed < 25; seed++ {
				s := walkStructure(rand.New(rand.NewSource(seed)), dom)
				at := fmt.Sprintf("%s, domain %d, seed %d", name, dom, seed)
				want := bruteAnswers(s, q)
				got, err := p.Answers(ctx, s, nil)
				if err != nil || !slices.EqualFunc(got, want, slices.Equal[[]int]) {
					t.Fatalf("%s: Answers = %v, %v; brute force %v", at, got, err, want)
				}
				if streamed := collectAnswers(t, s, q); !slices.EqualFunc(streamed, want, slices.Equal[[]int]) {
					t.Fatalf("%s: StreamAnswers = %v; brute force %v", at, streamed, want)
				}
				_, sat, _, err := p.Eval(ctx, s, nil)
				if err != nil || sat != (len(want) > 0) {
					t.Fatalf("%s: Eval = %v, %v with %d answers", at, sat, err, len(want))
				}
				answers += len(got)
			}
		}
	}
	if answers < 2000 {
		t.Errorf("%d answers over every shape: the generator no longer produces satisfiable cells", answers)
	}
	if n := scratches.out.Load(); n != 0 {
		t.Errorf("%d scratches not returned to the pool", n)
	}
}

// TestPlanAnswersWork: on the all-pairs relation of a 150-cycle's reachability
// (22 500 rows, every one an answer) Answers polls its context in proportion
// to the rows it reads and keeps. Trying every candidate polled once per
// candidate and scanned the table for each: about 22 500² / pollRows polls.
func TestPlanAnswersWork(t *testing.T) {
	const n = 150
	s := NewStructure(n)
	flat := make([]int, 0, 2*n*n)
	for i := 0; i < n*n; i++ {
		flat = append(flat, i/n, i%n)
	}
	if err := s.LoadSorted("R", 2, rows32(flat), []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(&Query{Atoms: []Atom{{Rel: "R", Args: []string{"x", "y"}}}, Free: []string{"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &pollCtx{Context: context.Background(), cancelAt: math.MaxInt}
	rows, err := p.Answers(ctx, s, nil)
	if err != nil || len(rows) != n*n {
		t.Fatalf("%d rows, err %v; want %d", len(rows), err, n*n)
	}
	for i, row := range rows {
		if row[0] != i/n || row[1] != i%n {
			t.Fatalf("row %d is %v: the answers are not the sorted relation", i, row)
		}
	}
	if bound := 8 * (n*n + len(rows)) / pollRows; ctx.polls > bound {
		t.Errorf("%d context polls for %d table rows and %d answers, want at most %d", ctx.polls, n*n, len(rows), bound)
	}
}

// fuzzInstance decodes a small structure and a query with one to three free
// variables from data: a domain of 0–3 values, three relations of arity 1, 2
// and 3 given as membership bits, and up to four atoms over five variables.
func fuzzInstance(data []byte) (*Structure, *Query) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	dom := next() % 4
	s := NewStructure(dom)
	for arity := 1; arity <= 3; arity++ {
		name := fmt.Sprintf("R%d", arity)
		if err := s.AddRelation(name, arity); err != nil {
			panic(err)
		}
		total := 1
		for i := 0; i < arity; i++ {
			total *= dom
		}
		for idx, bits := 0, 0; idx < total; idx++ {
			if idx%8 == 0 {
				bits = next()
			}
			if bits>>(idx%8)&1 == 0 {
				continue
			}
			row := make([]int, arity)
			for k, rest := arity-1, idx; k >= 0; k-- {
				row[k], rest = rest%dom, rest/dom
			}
			s.MustAddTuple(name, row...)
		}
	}
	q := &Query{}
	for n := 1 + next()%4; n > 0; n-- {
		arity := 1 + next()%3
		args := make([]string, arity)
		for k := range args {
			args[k] = fmt.Sprintf("v%d", next()%5)
		}
		q.Atoms = append(q.Atoms, Atom{Rel: fmt.Sprintf("R%d", arity), Args: args})
	}
	vars := q.Vars()
	for n := 1 + next()%3; n > 0 && len(vars) > 0; n-- {
		i := next() % len(vars)
		q.Free = append(q.Free, vars[i])
		vars = slices.Delete(vars, i, i+1)
	}
	return s, q
}

// FuzzPlanAnswers: Plan.Answers ≡ brute force ≡ StreamAnswers over the
// structure, and neither reversing the atoms (so that the variables number,
// decompose and root differently) nor renaming the variables changes the set.
func FuzzPlanAnswers(f *testing.F) {
	f.Add([]byte{3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 3, 1, 0, 1, 1, 2, 1, 2, 3, 1, 0, 2})
	f.Add([]byte{2, 1, 6, 0x99, 2, 2, 0, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, q := fuzzInstance(data)
		want := bruteAnswers(s, q)
		reversed := &Query{Atoms: slices.Clone(q.Atoms), Free: q.Free}
		slices.Reverse(reversed.Atoms)
		rename := func(v string) string { return "w" + string('9'-v[1]+'0') }
		renamed := &Query{}
		for _, at := range q.Atoms {
			args := make([]string, len(at.Args))
			for k, v := range at.Args {
				args[k] = rename(v)
			}
			renamed.Atoms = append(renamed.Atoms, Atom{Rel: at.Rel, Args: args})
		}
		for _, v := range q.Free {
			renamed.Free = append(renamed.Free, rename(v))
		}
		for how, fq := range map[string]*Query{"as decoded": q, "atoms reversed": reversed, "variables renamed": renamed} {
			got, err := AllAnswers(context.Background(), s, fq)
			if err != nil || !slices.EqualFunc(got, want, slices.Equal[[]int]) {
				t.Fatalf("%s: AllAnswers(%+v) = %v, %v; brute force %v", how, fq, got, err, want)
			}
		}
		if streamed := collectAnswers(t, s, q); !slices.EqualFunc(streamed, want, slices.Equal[[]int]) {
			t.Fatalf("StreamAnswers(%+v) = %v; brute force %v", q, streamed, want)
		}
		if n := scratches.out.Load(); n != 0 {
			t.Fatalf("%d scratches not returned to the pool", n)
		}
	})
}

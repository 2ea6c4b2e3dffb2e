package cq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The differential suite of the compiled plan and the flat kernel
// (`make join-gate` runs it under -race): Plan.Eval ≡ EvalBacktrack,
// Plan.Answers ≡ brute force ≡ StreamAnswers, on seeded random instances
// chosen to reach every corner of the kernel.

// joinInstance builds a random structure and query: Domain 1–5; relations of
// arity 1–6, built by AddTuple or bulk-loaded, some empty; atoms over a
// small variable pool, so variables repeat inside atoms, several atoms land
// in one bag, and queries come out disconnected; unary atoms; and now and
// then a cycle of binary atoms, whose decomposition has bags with a
// variable none of their atoms covers.
func joinInstance(rng *rand.Rand) (*Structure, *Query) {
	dom := 1 + rng.Intn(5)
	s := NewStructure(dom)
	nrels := 1 + rng.Intn(4)
	arity := make([]int, nrels)
	for ri := range arity {
		arity[ri] = 1 + rng.Intn(3)
		if rng.Intn(5) == 0 {
			arity[ri] = 4 + rng.Intn(3)
		}
		addRandomRelation(rng, s, fmt.Sprintf("R%d", ri), arity[ri])
	}
	pool := 2 + rng.Intn(6)
	name := func(i int) string { return fmt.Sprintf("v%d", i) }
	q := &Query{}
	for n := 1 + rng.Intn(5); n > 0; n-- {
		ri := rng.Intn(nrels)
		args := make([]string, arity[ri])
		for k := range args {
			args[k] = name(rng.Intn(pool))
		}
		q.Atoms = append(q.Atoms, Atom{Rel: fmt.Sprintf("R%d", ri), Args: args})
	}
	if rng.Intn(4) == 0 {
		addRandomRelation(rng, s, "E", 2)
		n := 4 + rng.Intn(3)
		for i := 0; i < n; i++ {
			q.Atoms = append(q.Atoms, Atom{Rel: "E", Args: []string{name(i), name((i + 1) % n)}})
		}
	}
	return s, q
}

// addRandomRelation declares a relation holding a random subset of
// Domain^arity (empty one time in six), bulk-loaded or tuple by tuple.
func addRandomRelation(rng *rand.Rand, s *Structure, name string, arity int) {
	total := 1
	for i := 0; i < arity; i++ {
		total *= s.Domain
	}
	density := rng.Float64()
	if rng.Intn(6) == 0 {
		density = 0
	}
	var flat []int
	for idx := 0; idx < total && len(flat) < 400*arity; idx++ {
		if rng.Float64() < density {
			row := make([]int, arity)
			for k, rest := arity-1, idx; k >= 0; k-- {
				row[k], rest = rest%s.Domain, rest/s.Domain
			}
			flat = append(flat, row...)
		}
	}
	if rng.Intn(2) == 0 {
		order := make([]int, arity)
		for i := range order {
			order[i] = i
		}
		if err := s.LoadSorted(name, arity, rows32(flat), order); err != nil {
			panic(err)
		}
		return
	}
	if err := s.AddRelation(name, arity); err != nil {
		panic(err)
	}
	for _, i := range rng.Perm(len(flat) / arity) {
		s.MustAddTuple(name, flat[i*arity:(i+1)*arity]...)
	}
}

// bruteAnswers projects every satisfying assignment of q onto its free
// variables, by enumerating Domain^|vars| assignments.
func bruteAnswers(s *Structure, q *Query) [][]int {
	vars := q.Vars()
	val := make(map[string]int, len(vars))
	seen := make(map[string]bool)
	var out [][]int
	var rec func(i int)
	rec = func(i int) {
		if i < len(vars) {
			for d := 0; d < s.Domain; d++ {
				val[vars[i]] = d
				rec(i + 1)
			}
			return
		}
		for _, at := range q.Atoms {
			tuple := make([]int, len(at.Args))
			for k, a := range at.Args {
				tuple[k] = val[a]
			}
			if !s.Contains(at.Rel, tuple...) {
				return
			}
		}
		ans := make([]int, len(q.Free))
		for k, f := range q.Free {
			ans[k] = val[f]
		}
		if !seen[key(ans)] {
			seen[key(ans)] = true
			out = append(out, ans)
		}
	}
	rec(0)
	slices.SortFunc(out, slices.Compare[[]int])
	return out
}

func TestPlanDifferential(t *testing.T) {
	ctx := context.Background()
	sats := 0
	for seed := int64(0); seed < 1500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, q := joinInstance(rng)
		_, want, err := EvalBacktrack(ctx, s, q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(q)
		if err != nil {
			t.Fatalf("seed %d: Compile(%+v): %v", seed, q, err)
		}
		names, tuples := s.RelationNames(), s.NumTuples()
		assign, got, work, err := p.Eval(ctx, s, nil)
		if err != nil || got != want {
			t.Fatalf("seed %d: Eval(%+v) = %v, %v; backtracking says %v", seed, q, got, err, want)
		}
		if work.WideKeys != 0 {
			t.Fatalf("seed %d: %d wide keys over a domain of %d", seed, work.WideKeys, s.Domain)
		}
		if got {
			sats++
			checkAssignment(t, s, q, assign)
		}

		// Answers over a random non-empty subset of the variables.
		vars := q.Vars()
		rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
		fq := &Query{Atoms: q.Atoms, Free: vars[:1+rng.Intn(min(3, len(vars)))]}
		// A plan compiled with free variables roots its trees elsewhere; it
		// must still decide the Boolean question (core keeps one plan per
		// query and runs both Eval and Answers on it).
		fp, err := Compile(fq)
		if err != nil {
			t.Fatalf("seed %d: Compile(%+v): %v", seed, fq, err)
		}
		fassign, fgot, _, err := fp.Eval(ctx, s, nil)
		if err != nil || fgot != want {
			t.Fatalf("seed %d: Eval on the plan with free %v = %v, %v; the Boolean plan says %v", seed, fq.Free, fgot, err, want)
		}
		if fgot {
			checkAssignment(t, s, fq, fassign)
		}
		if len(vars) > 6 {
			continue // brute force is Domain^|vars|
		}
		wantAns := bruteAnswers(s, fq)
		gotAns, err := AllAnswers(ctx, s, fq)
		if err != nil || !slices.EqualFunc(gotAns, wantAns, slices.Equal[[]int]) {
			t.Fatalf("seed %d: AllAnswers(%+v) = %v, %v; brute force %v", seed, fq, gotAns, err, wantAns)
		}
		streamed := collectAnswers(t, s, fq)
		slices.SortFunc(streamed, slices.Compare[[]int])
		if !slices.EqualFunc(streamed, wantAns, slices.Equal[[]int]) {
			t.Fatalf("seed %d: StreamAnswers(%+v) = %v; brute force %v", seed, fq, streamed, wantAns)
		}
		if !slices.Equal(s.RelationNames(), names) || s.NumTuples() != tuples {
			t.Fatalf("seed %d: evaluation changed the structure: relations %v → %v", seed, names, s.RelationNames())
		}
	}
	if sats < 200 || sats > 1300 {
		t.Errorf("%d of 1500 instances satisfiable: the generator no longer mixes outcomes", sats)
	}
	if n := scratches.out.Load(); n != 0 {
		t.Errorf("%d scratches not returned to the pool", n)
	}
}

// TestPlanShapes pins what Compile does with three known shapes.
func TestPlanShapes(t *testing.T) {
	e := func(a, b string) Atom { return Atom{Rel: "E", Args: []string{a, b}} }
	for _, tc := range []struct {
		name  string
		q     *Query
		bags  int
		roots int
	}{
		// One bag per variable, contracted to one per edge of the path.
		{"path", &Query{Atoms: []Atom{e("a", "b"), e("b", "c"), e("c", "d")}}, 3, 1},
		{"triangle", &Query{Atoms: []Atom{e("a", "b"), e("b", "c"), e("c", "a")}}, 1, 1},
		{"forest", &Query{Atoms: []Atom{e("a", "b"), e("c", "d")}}, 2, 2},
	} {
		p, err := Compile(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		roots := 0
		for _, b := range p.bags {
			if b.parent < 0 {
				roots++
			}
		}
		if len(p.bags) != tc.bags || roots != tc.roots {
			t.Errorf("%s: %d bags in %d trees, want %d in %d", tc.name, len(p.bags), roots, tc.bags, tc.roots)
		}
	}
	// A 5-cycle has a bag holding a variable none of its atoms mentions.
	p, err := Compile(&Query{Atoms: []Atom{e("a", "b"), e("b", "c"), e("c", "d"), e("d", "f"), e("f", "a")}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(p.bags, func(b planBag) bool { return b.covered < len(b.vars) }) {
		t.Error("5-cycle: no bag is extended over an uncovered variable")
	}
	// Rooted at a free variable's bag, only the path to it is walked.
	p, err = Compile(&Query{Atoms: []Atom{e("a", "b"), e("b", "c"), e("c", "d")}, Free: []string{"d"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.walk) != 1 || p.walk[0].bag != 0 {
		t.Errorf("free variable d: the walk is %+v; want only the root", p.walk)
	}
}

// wideInstance is a chain R(a,b,c,d,e), S(a,b,c,d,f), T(a,b,c,d) with T
// joined into R's bag: a four-column join key and a four-column separator.
// Over a domain of 70 000 a column takes 17 bits, so neither packs into a
// word. Values stay below 6, so the same tuples load into a small domain.
func wideInstance(rng *rand.Rand, domain int) (*Structure, *Query) {
	s := NewStructure(domain)
	rows := func(arity, n int) []int {
		set := make(map[string][]int)
		for i := 0; i < n; i++ {
			row := make([]int, arity)
			for k := range row {
				row[k] = rng.Intn(3)
			}
			set[key(row)] = row
		}
		var all [][]int
		for _, r := range set {
			all = append(all, r)
		}
		slices.SortFunc(all, slices.Compare[[]int])
		return slices.Concat(all...)
	}
	for _, r := range []struct {
		name  string
		arity int
	}{{"R", 5}, {"S", 5}, {"T", 4}} {
		order := make([]int, r.arity)
		for i := range order {
			order[i] = i
		}
		if err := s.LoadSorted(r.name, r.arity, rows32(rows(r.arity, 14)), order); err != nil {
			panic(err)
		}
	}
	return s, &Query{Atoms: []Atom{
		{Rel: "R", Args: []string{"a", "b", "c", "d", "e"}},
		{Rel: "S", Args: []string{"a", "b", "c", "d", "f"}},
		{Rel: "T", Args: []string{"a", "b", "c", "d"}},
	}}
}

// TestPlanWideKeys: key columns wider than a word go through the hashed,
// verified index — for the in-bag join and for the semijoin — and the
// outcome is the one the packed keys of a small domain give.
func TestPlanWideKeys(t *testing.T) {
	ctx := context.Background()
	sats := 0
	for seed := int64(0); seed < 60; seed++ {
		wide, q := wideInstance(rand.New(rand.NewSource(seed)), 70000)
		narrow, _ := wideInstance(rand.New(rand.NewSource(seed)), 6)
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := EvalBacktrack(ctx, narrow, q)
		if err != nil {
			t.Fatal(err)
		}
		_, gotNarrow, work, err := p.Eval(ctx, narrow, nil)
		if err != nil || gotNarrow != want || work.WideKeys != 0 {
			t.Fatalf("seed %d, domain 6: sat %v (want %v), %d wide keys, err %v", seed, gotNarrow, want, work.WideKeys, err)
		}
		assign, gotWide, work, err := p.Eval(ctx, wide, nil)
		if err != nil || gotWide != want {
			t.Fatalf("seed %d, domain 70000: sat %v (want %v), err %v", seed, gotWide, want, err)
		}
		if work.WideKeys == 0 {
			t.Fatalf("seed %d: a 68-bit key did not take the width fallback", seed)
		}
		if gotWide {
			sats++
			checkAssignment(t, wide, q, assign)
		}
		// The walk never iterates the domain, so 70 000² candidates cost
		// nothing: the wide structure has the narrow one's answers. Four free
		// variables make the projections' keys 68 bits wide as well.
		for _, free := range [][]string{{"e", "f"}, {"f", "a", "e", "d"}} {
			fq := &Query{Atoms: q.Atoms, Free: free}
			wantAns, err := AllAnswers(ctx, narrow, fq)
			if err != nil {
				t.Fatal(err)
			}
			gotAns, err := AllAnswers(ctx, wide, fq)
			if err != nil || !slices.EqualFunc(gotAns, wantAns, slices.Equal[[]int]) {
				t.Fatalf("seed %d, free %v: domain 70000 answers %v, %v; domain 6 answers %v", seed, free, gotAns, err, wantAns)
			}
			if want != (len(wantAns) > 0) {
				t.Fatalf("seed %d, free %v: sat %v but %d answers", seed, free, want, len(wantAns))
			}
		}
	}
	if sats < 10 || sats > 50 {
		t.Errorf("%d of 60 wide instances satisfiable: the generator no longer mixes outcomes", sats)
	}
}

// TestPlanChargeErrors: a ChargeFunc failing at its N-th call aborts the
// evaluation with that error, for every N a run makes; the deltas of a
// completed run sum to the bytes of the tables it ends with.
func TestPlanChargeErrors(t *testing.T) {
	ctx := context.Background()
	errBudget := errors.New("budget")
	for seed := int64(0); seed < 80; seed++ {
		s, q := joinInstance(rand.New(rand.NewSource(seed)))
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		var calls, sum int64
		r, err := p.start(ctx, s, func(d int64) error { calls++; sum += d; return nil })
		if err != nil {
			t.Fatal(err)
		}
		sat, err := r.reduce()
		if err != nil {
			t.Fatal(err)
		}
		var live int64
		for _, tab := range r.base {
			live += 4 * int64(len(tab.data))
		}
		r.done()
		// An unsatisfiable run stops at its first empty table and leaves the
		// bags above it unbuilt.
		if sat && sum != live {
			t.Fatalf("seed %d: charged %d bytes over %d calls, tables hold %d", seed, sum, calls, live)
		}
		for n := int64(1); n <= calls; n++ {
			left := n
			_, _, _, err := p.Eval(ctx, s, func(int64) error {
				if left--; left == 0 {
					return errBudget
				}
				return nil
			})
			if err != errBudget {
				t.Fatalf("seed %d: charge failing at call %d of %d: err = %v", seed, n, calls, err)
			}
		}
	}
	if n := scratches.out.Load(); n != 0 {
		t.Errorf("%d scratches not returned to the pool", n)
	}
}

// TestPlanAnswersCharged: Answers reports its bag tables and every answer
// row it keeps to the charge function, and an error from it — at any call —
// aborts the enumeration with that error.
func TestPlanAnswersCharged(t *testing.T) {
	ctx := context.Background()
	errBudget := errors.New("budget")
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, q := joinInstance(rng)
		vars := q.Vars()
		fq := &Query{Atoms: q.Atoms, Free: vars[:1+rng.Intn(min(2, len(vars)))]}
		p, err := Compile(fq)
		if err != nil {
			t.Fatal(err)
		}
		var calls, sum int64
		rows, err := p.Answers(ctx, s, func(d int64) error { calls++; sum += d; return nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) > 0 && sum < int64(len(rows))*int64(24+8*len(fq.Free)) {
			t.Fatalf("seed %d: %d answer rows but only %d bytes charged", seed, len(rows), sum)
		}
		for n := int64(1); n <= calls; n++ {
			left := n
			_, err := p.Answers(ctx, s, func(int64) error {
				if left--; left == 0 {
					return errBudget
				}
				return nil
			})
			if err != errBudget {
				t.Fatalf("seed %d: charge failing at call %d of %d: err = %v", seed, n, calls, err)
			}
		}
	}
	if n := scratches.out.Load(); n != 0 {
		t.Errorf("%d scratches not returned to the pool", n)
	}
}

// TestPlanCancel: a context that turns cancelled at its N-th poll stops
// Eval, Answers and EvalBacktrack with context.Canceled at that poll, for
// every N up to the run's own count, and the scratch goes back to the pool.
func TestPlanCancel(t *testing.T) {
	// One 20 000-row relation under a three-bag path: the scans, the index (a
	// 30-bit key space is too sparse for a bitset), the semijoins and the
	// witness scan all poll; with the path's two ends free, so do the
	// projections, the joins and the answer rows of the walk.
	s := NewStructure(1 << 15)
	var flat []int
	for i := 0; i < 20000; i++ {
		flat = append(flat, i, (i*7+1)%20000)
	}
	if err := s.LoadSorted("E", 2, rows32(flat), []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadSorted("P", 1, []int32{5}, []int{0}); err != nil {
		t.Fatal(err)
	}
	q := &Query{Atoms: []Atom{
		{Rel: "E", Args: []string{"a", "b"}}, {Rel: "E", Args: []string{"b", "c"}},
		{Rel: "E", Args: []string{"c", "d"}}, {Rel: "P", Args: []string{"a"}},
	}}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Compile(&Query{Atoms: q.Atoms[:3], Free: []string{"a", "d"}})
	if err != nil {
		t.Fatal(err)
	}
	unsat := &Query{Atoms: []Atom{{Rel: "E", Args: []string{"a", "b"}}, {Rel: "E", Args: []string{"b", "a"}}, {Rel: "P", Args: []string{"b"}}}}
	for _, tc := range []struct {
		name     string
		minPolls int
		run      func(ctx context.Context) error
	}{
		{"Eval", 15, func(ctx context.Context) error { _, _, _, err := p.Eval(ctx, s, nil); return err }},
		{"Answers", 36, func(ctx context.Context) error { _, err := fp.Answers(ctx, s, nil); return err }},
		{"EvalBacktrack", 4, func(ctx context.Context) error { _, _, err := EvalBacktrack(ctx, s, unsat); return err }},
	} {
		for n := 1; ; n++ {
			ctx := &pollCtx{Context: context.Background(), cancelAt: n}
			err := tc.run(ctx)
			if out := scratches.out.Load(); out != 0 {
				t.Fatalf("%s cancelled at poll %d: %d scratches not returned", tc.name, n, out)
			}
			if err == nil {
				if n <= tc.minPolls {
					t.Errorf("%s completed within %d polls, want more than %d", tc.name, n-1, tc.minPolls)
				}
				break
			}
			if !errors.Is(err, context.Canceled) || ctx.polls != n {
				t.Fatalf("%s cancelled at poll %d: err %v after %d polls", tc.name, n, err, ctx.polls)
			}
		}
	}
}

// satisfies reports whether the assignment satisfies every atom.
func satisfies(s *Structure, q *Query, a Assignment) bool {
	for _, at := range q.Atoms {
		tuple := make([]int, len(at.Args))
		for i, v := range at.Args {
			tuple[i] = a[v]
		}
		if !s.Contains(at.Rel, tuple...) {
			return false
		}
	}
	return true
}

// TestPlanConcurrent: one plan and one structure serve eight goroutines at
// once; the pool and the plan are shared, the tables are not.
func TestPlanConcurrent(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, q := joinInstance(rng)
		q.Free = q.Vars()[:1]
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		_, wantSat, _, err := p.Eval(ctx, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantAns, err := p.Answers(ctx, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					assign, sat, _, err := p.Eval(ctx, s, nil)
					if err != nil || sat != wantSat {
						t.Errorf("seed %d: concurrent Eval = %v, %v; want %v", seed, sat, err, wantSat)
						return
					}
					if sat && !satisfies(s, q, assign) {
						t.Errorf("seed %d: concurrent Eval returned %v, which violates an atom", seed, assign)
						return
					}
					ans, err := p.Answers(ctx, s, nil)
					if err != nil || !slices.EqualFunc(ans, wantAns, slices.Equal[[]int]) {
						t.Errorf("seed %d: concurrent Answers = %v, %v; want %v", seed, ans, err, wantAns)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

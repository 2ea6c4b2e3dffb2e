package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/govern"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// withScratches runs f with every scratch a pool hands out passed to
// taken first.
func withScratches(taken func(any), f func()) {
	scratchTaken = taken
	defer func() { scratchTaken = nil }()
	f()
}

// coldScratch drops a scratch's tables: the kernel that takes it allocates
// every table afresh, as if the pool were empty.
func coldScratch(sc any) {
	switch sc := sc.(type) {
	case *productScratch:
		*sc = productScratch{}
	case *sweepScratch:
		*sc = sweepScratch{}
	}
}

// poisonScratch sets every element of a scratch's spare capacity — past the
// length of each of its slices — to all ones, so a kernel that reads what
// it has not written shows up.
func poisonScratch(sc any) {
	switch sc := sc.(type) {
	case *productScratch:
		for _, s := range []*keySet{&sc.visited, &sc.accepted} {
			poisonSpare(s.set)
			poisonSpare(s.list)
		}
		poisonSpare(sc.parents)
		poisonSpare(sc.order)
	case *sweepScratch:
		for _, w := range []*wordTable{&sc.ids, &sc.keep, &sc.dests} {
			poisonSpare(w.words)
			poisonSpare(w.list)
		}
		for _, l := range [][]int32{sc.num, sc.out, sc.edges, sc.path, sc.stack, sc.finished, sc.lanes, sc.dst} {
			poisonSpare(l)
		}
		for _, l := range [][]uint64{sc.masks, sc.mask, sc.keys, sc.words, sc.order} {
			poisonSpare(l)
		}
		segs := sc.segs[:cap(sc.segs)]
		for i := len(sc.segs); i < len(segs); i++ {
			segs[i] = sweepSegment{-1, -1, -1}
		}
	}
}

func poisonSpare[T uint64 | int32](s []T) {
	full := s[:cap(s)]
	for i := len(s); i < len(full); i++ {
		full[i] = ^T(0)
	}
}

// checkScratchesReturned fails t unless every kernel scratch taken has been
// given back to its pool.
func checkScratchesReturned(t testing.TB, at string) {
	t.Helper()
	if p, s := productScratches.out.Load(), sweepScratches.out.Load(); p != 0 || s != 0 {
		t.Fatalf("%s: %d product and %d sweep scratches not given back", at, p, s)
	}
}

// scratchRun is what a run over the differential instances shows from
// outside the kernels' memory: per instance and strategy the decision, the witness, the
// work and the reservation's peak and remainder after the call; per answers
// query the answer set; per kernel step — every check, witness and
// exhaustive traversal of a kept fastProduct, before and after a
// releaseMem, and every batch of a sweepKernel — what the kernel has
// charged.
func scratchRun(t *testing.T) []string {
	t.Helper()
	var out []string
	ctx := context.Background()
	broker := govern.NewBroker(1 << 30)
	reserve := func() *govern.Reservation {
		res, err := broker.Reserve(0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for i, in := range genericInstances(t, rand.New(rand.NewSource(41))) {
		if i%3 != 0 {
			continue
		}
		for _, s := range []Strategy{Generic, Reduction} {
			res := reserve()
			r, err := EvaluateContext(govern.NewContext(ctx, res), in.db, in.q, Options{Strategy: s})
			out = append(out, fmt.Sprintf("%s/%v: err %v", in.name, s, err))
			if r != nil {
				out = append(out, fmt.Sprintf("  sat %v nodes %v paths %v stats %+v", r.Sat, r.Nodes, r.Paths, r.Stats))
			}
			out = append(out, fmt.Sprintf("  peak %d, %d kept", res.Peak(), res.Used()))
			res.Release()
		}
	}

	a := alphabet.Lower(2)
	db := randomDB(rand.New(rand.NewSource(42)), a, 12, 30)
	free := query.NewBuilder(a).Free("x", "y").
		Reach("x", "p1", "y").Reach("x", "p2", "y").Reach("y", "p3", "z").
		Rel(synchro.PrefixOf(a), "p1", "p2").Lang("p1", "a(a|b)*").Lang("p3", "b*").MustBuild()
	for _, s := range []Strategy{Generic, Reduction} {
		res := reserve()
		rows, err := AnswersContext(govern.NewContext(ctx, res), db, free, Options{Strategy: s})
		out = append(out, fmt.Sprintf("answers/%v: %v err %v peak %d kept %d", s, rows, err, res.Peak(), res.Used()))
		res.Release()
	}

	in := newSweepInstance(t, "V12/hamming<=1", db, 2, []*synchro.Relation{synchro.HammingAtMost(a, 1)}, "a(a|b)*")
	fp := newFastProduct(in.db, in.merged)
	n := in.db.NumVertices()
	var sources []int
	for s := 0; s < n*n; s += 5 {
		sources = append(sources, s)
	}
	var decided [2][]string              // per round, every reach answer
	var last, lastDests []int            // sources with destinations, and those destinations
	for round := 0; round < 2; round++ { // the second after releaseMem: the kernel starts from empty tables
		res := reserve()
		kctx := govern.NewContext(ctx, res)
		if round == 1 {
			// The released kernel's last traversal was from last: asked about
			// them again it must begin anew, not resume tables it gave back.
			for k := 0; k < len(lastDests); k += 2 {
				if ok, err := fp.reach(kctx, last, lastDests[k:k+2], 0); !ok || err != nil {
					t.Fatalf("after releaseMem the kernel says %v→%v is %v (err %v); its last traversal reached it", last, lastDests[k:k+2], ok, err)
				}
			}
		}
		fp.paths = round == 0
		srcs, dsts := make([]int, 2), make([]int, 2)
		for _, s := range sources {
			decodeSource(distinctPattern(2), s, n, srcs)
			for d := 0; d < n*n; d += 7 {
				decodeSource(distinctPattern(2), d, n, dsts)
				ok, err := fp.reach(kctx, srcs, dsts, 0)
				out = append(out, fmt.Sprintf("reach %v→%v: %v %v charged %d", srcs, dsts, ok, err, fp.charged))
				decided[round] = append(decided[round], fmt.Sprintf("%v→%v: %v %v", srcs, dsts, ok, err))
			}
			paths, ok, err := fp.witness(kctx, srcs, srcs, 0)
			out = append(out, fmt.Sprintf("witness %v: %v %v %v charged %d", srcs, paths, ok, err, fp.charged))
			dests, err := componentReachSet(kctx, fp, srcs, 0, nil)
			out = append(out, fmt.Sprintf("run %v: %v %v charged %d", srcs, dests, err, fp.charged))
			if len(dests) > 0 {
				last, lastDests = slices.Clone(srcs), dests
			}
		}
		if last == nil {
			t.Fatal("no source reaches a destination: the instance exercises nothing")
		}
		if _, err := componentReachSet(kctx, fp, last, 0, nil); err != nil {
			t.Fatal(err)
		}
		fp.releaseMem()
		out = append(out, fmt.Sprintf("released: %d kept", res.Used()))
		res.Release()
	}
	for i := range decided[0] {
		if decided[0][i] != decided[1][i] {
			t.Fatalf("after releaseMem the kept kernel decides %s, before it %s", decided[1][i], decided[0][i])
		}
	}
	res := reserve()
	k, err := newSweepKernel(packProduct(in.db, in.merged), &in.merged.pat, 1, res)
	if err != nil {
		t.Fatal(err)
	}
	lanes := make([]int32, 64*2)
	for first := 0; first < pow(in.db.NumVertices(), 2); first += 64 {
		for i := 0; i < 64; i++ {
			decodeSource(&in.merged.pat, first+i, in.db.NumVertices(), lanes[2*i:2*i+2])
		}
		err := k.Run(ctx, lanes, 0, 64, 0)
		keys := k.dests.appendKeys(nil)
		k.sortDests(keys)
		words := make([]uint64, len(keys))
		for j, key := range keys {
			words[j] = k.dests.at(key)[0]
		}
		out = append(out, fmt.Sprintf("batch %d: %v dests %v words %v charged %d", first, err, keys, words, k.charged))
	}
	k.release(true)
	out = append(out, fmt.Sprintf("sweep released: %d kept", res.Used()))
	res.Release()
	checkScratchesReturned(t, "after the run")
	return out
}

// TestScratchWarmEqualsCold: kernels that take warm scratches whose spare
// capacity is poisoned (every element past a slice's length all ones)
// decide, answer, witness and charge exactly what they do over cold ones
// (every table allocated afresh), in both key regimes — a table that read
// what it had not written, or a charge that counted a scratch's capacity
// instead of what the search met, would differ.
func TestScratchWarmEqualsCold(t *testing.T) {
	for _, regime := range keyRegimes {
		t.Run(regime.name, func(t *testing.T) {
			regime.run(func() {
				var cold, warm []string
				withScratches(coldScratch, func() { cold = scratchRun(t) })
				scratchRun(t) // warm the pools
				withScratches(poisonScratch, func() { warm = scratchRun(t) })
				if len(cold) != len(warm) {
					t.Fatalf("%d records over cold scratches, %d over warm ones", len(cold), len(warm))
				}
				for i := range cold {
					if cold[i] != warm[i] {
						t.Fatalf("record %d differs (after %q):\ncold scratch: %s\nwarm scratch: %s", i, cold[max(i-2, 0):i], cold[i], warm[i])
					}
				}
			})
		})
	}
}

// TestGenericWarmEvaluationAllocs: once the pools are warm, an evaluation
// of the generic-search workload's two costliest shapes allocates a small
// constant — the result, the kernel's registers — and no table: a kernel
// that regrew its tables per evaluation would make tens of allocations more
// per traversal's growth, and BenchmarkGenericCheck's bytes per operation
// would read the tables (1.28 MB on the prefix chain before they were
// pooled).
func TestGenericWarmEvaluationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	a := alphabet.Lower(2)
	var evals []func()
	for _, bc := range genericCheckShapes(a) {
		db := genericCheckDB(bc.q.Alphabet(), bc.v)
		p, err := Prepare(bc.q, Options{Strategy: Generic})
		if err != nil {
			t.Fatal(err)
		}
		eval := func() {
			if _, err := p.EvaluateContext(context.Background(), db, nil); err != nil {
				t.Fatal(err)
			}
		}
		eval()
		if got := testing.AllocsPerRun(10, eval); got > 64 {
			t.Errorf("%s: a warm evaluation makes %.0f allocations (ceiling 64)", bc.name, got)
		}
		evals = append(evals, eval)
	}
	// One warm scratch serves kernels of every shape in turn: a table sized
	// by the last, smaller search regrows into the storage it kept, so the
	// evaluations stay under TestCeilings' 8 KiB (76 KB each when a regrown
	// table was allocated afresh).
	_, bytes := measure(t, 10, func(testing.TB) int {
		for _, eval := range evals {
			eval()
		}
		return 1
	})
	if each := bytes / float64(len(evals)); each > 8<<10 {
		t.Errorf("the shapes in turn: a warm evaluation allocates %.0f bytes (ceiling 8 KiB)", each)
	}
}

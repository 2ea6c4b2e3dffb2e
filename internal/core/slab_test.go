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

// withSlabs runs f with the slab pools set as given: reuse off is an empty
// pool (every table allocated, as before the pools), poison on hands out
// every array all ones.
func withSlabs(reuse, poison bool, f func()) {
	slabReuse, slabPoison = reuse, poison
	defer func() { slabReuse, slabPoison = true, false }()
	f()
}

// slabRun is what a run over the slab instances shows from outside the
// kernels' memory: per instance and strategy the decision, the witness, the
// work and the reservation's peak and remainder after the call; per answers
// query the answer set; per kernel step — every check, witness and
// exhaustive traversal of a kept fastProduct, before and after a
// releaseMem, and every batch of a sweepKernel — what the kernel has
// charged.
func slabRun(t *testing.T) []string {
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
	k, err := newSweepKernel(packProduct(in.db, in.merged), 1, res.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	lanes := make([]int32, 64*2)
	for first := 0; first < pow(in.db.NumVertices(), 2); first += 64 {
		for i := 0; i < 64; i++ {
			decodeSource(&in.merged.pat, first+i, in.db.NumVertices(), lanes[2*i:2*i+2])
		}
		err := k.Run(ctx, lanes, 0, 64, 0)
		keys := slices.Clone(k.dests.keys.s)
		k.sortDests(keys)
		words := make([]uint64, len(keys))
		for j, key := range keys {
			words[j] = k.dests.at(key)[0]
		}
		out = append(out, fmt.Sprintf("batch %d: %v dests %v words %v charged %d", first, err, keys, words, k.charged))
	}
	k.release()
	out = append(out, fmt.Sprintf("sweep released: %d kept", res.Used()))
	res.Release()
	return out
}

// TestSlabsPoisonedEqualEmpty: kernels whose tables come from warm pools of
// poisoned arrays (every word all ones until a table writes it) decide,
// answer, witness and charge exactly what they do over an empty pool, in
// both key regimes — a table that read a word it had not written, kept a
// pooled array's slack, or charged the class instead of its own length
// would differ.
func TestSlabsPoisonedEqualEmpty(t *testing.T) {
	for _, regime := range []struct {
		name string
		run  func(func())
	}{{"narrow", func(f func()) { f() }}, {"wide", inWideRegime}} {
		t.Run(regime.name, func(t *testing.T) {
			regime.run(func() {
				var empty, poisoned []string
				withSlabs(false, false, func() { empty = slabRun(t) })
				withSlabs(true, true, func() {
					slabRun(t) // fill the pools
					poisoned = slabRun(t)
				})
				if len(empty) != len(poisoned) {
					t.Fatalf("%d records over an empty pool, %d over a poisoned one", len(empty), len(poisoned))
				}
				for i := range empty {
					if empty[i] != poisoned[i] {
						t.Fatalf("record %d differs:\nempty pool:    %s\npoisoned pool: %s", i, empty[i], poisoned[i])
					}
				}
			})
		})
	}
}

// TestSlabAppendCapacity: a table grown through its slab has, step by step,
// the capacity append gives a plain slice grown the same way — what keeps
// every charge what it was before the pools.
func TestSlabAppendCapacity(t *testing.T) {
	var s slab[uint64]
	var plain []uint64
	var h slab[int32]
	var plainH []int32
	for i := 0; i < 100000; i++ {
		s.push(uint64(i))
		plain = append(plain, uint64(i))
		h.push(int32(i))
		plainH = append(plainH, int32(i))
		if cap(s.s) != cap(plain) || cap(h.s) != cap(plainH) {
			t.Fatalf("after %d pushes: caps %d and %d, append gives %d and %d", i+1, cap(s.s), cap(h.s), cap(plain), cap(plainH))
		}
	}
	if !slices.Equal(s.s, plain) || !slices.Equal(h.s, plainH) {
		t.Fatal("pushed items differ from appended ones")
	}
	s.release()
	var words slab[uint64]
	var plainWords []uint64
	for _, k := range []int{1, 2, 2, 3, 64, 1, 1000, 2} {
		words.extend(k)
		plainWords = append(plainWords, make([]uint64, k)...)
		if cap(words.s) != cap(plainWords) || len(words.s) != len(plainWords) {
			t.Fatalf("extend(%d): len %d cap %d, append gives len %d cap %d", k, len(words.s), cap(words.s), len(plainWords), cap(plainWords))
		}
	}
}

// TestGenericWarmEvaluationAllocs: once the pools are warm, an evaluation
// of the generic-search workload's two costliest shapes allocates a small
// constant — the result, the kernel's registers — and no table: a kernel
// that regrew its tables per evaluation would make tens of allocations more
// per traversal's growth, and BenchmarkGenericCheck's bytes per operation
// would read the tables (1.28 MB on the prefix chain before the pools).
func TestGenericWarmEvaluationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	a := alphabet.Lower(2)
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
	}
}

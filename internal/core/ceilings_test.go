package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ecrpq/internal/alphabet"
)

// A layerOp is one operation of a layer benchmark, which TestCeilings runs
// as well. op returns the units the layer's ceilings are per: rows, or 1.
type layerOp struct {
	name string
	op   func(testing.TB) int
}

// measure warms op up, then returns its mean allocations and heap bytes over
// runs runs at GOMAXPROCS(1): a sync.Pool keeps one private slot per P, so on
// more Ps a goroutine that moves misses the scratches it put back, which is
// warm-up, not regrowth.
func measure(t *testing.T, runs int, op func(testing.TB) int) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() { op(t) }
	allocs = testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestCeilings holds the layer benchmarks under the ceilings the kernels'
// costs promise, each row per operation:
//   - streaming: the first witness under 400 allocations and 32 KiB — the
//     satisfiable fast path does not materialise the sweep's tables;
//   - Lemma 4.3 sweep: 32 B and 0.05 allocations per emitted row — int32
//     rows with no header, from the kernel straight into the flat table the
//     join scans (18.7 B per 2-track row; 58.8 with a slice header per row);
//   - Lemma 4.2 product search: at most V traversals, 0.05 allocations per
//     check wherever an evaluation makes 1 000 checks or more, and 4 KiB per
//     evaluation on the fan, 8 KiB on the chain — the warm-pool figures
//     (1.7 and 2.9 KB over the merged automaton; 2.1 and 3.5 KB over the
//     unmerged relations; 1.28 MB on the chain when every evaluation regrew
//     its kernel's tables);
//   - Prop 2.3 join: 8 B and 0.05 allocations per input row wherever it
//     reads 10 000 rows or more — flat tables, integer keys;
//   - Lemma 4.1 merge: 256 B and 0.5 allocations per merged transition
//     wherever a merge has 500 transitions or more — an integer product
//     written straight into the table the kernels walk (the edit<=2 fan:
//     602 transitions, 133 allocations and 83 KB; 11 775 allocations and
//     323 KB when the product ran over string letters, decoded on every
//     visit, into a map automaton that was decoded again).
func TestCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random and allocates on its own")
	}
	type ceiling struct {
		name          string
		op            func(testing.TB) int
		allocs, bytes float64 // per operation
	}
	table := []ceiling{{"stream/first-witness", firstWitnessOp(t), 400, 32 << 10}}
	for _, sc := range sweepCases(t) {
		rows := float64(sc.op(t))
		table = append(table, ceiling{fmt.Sprintf("sweep/%s (%.0f rows)", sc.name, rows), sc.op, 0.05 * rows, 32 * rows})
	}
	a := alphabet.Lower(2)
	for _, bc := range genericCheckShapes(a) {
		op := genericCheckOp(t, bc.q, genericCheckDB(bc.q.Alphabet(), bc.v))
		st := op(t)
		if st.Traversals > bc.v {
			t.Errorf("generic/%s: %d traversals on V = %d", bc.name, st.Traversals, bc.v)
		}
		allocs := math.Inf(1) // a satisfiable instance that needs one check still builds a kernel
		if st.ProductChecks >= 1000 {
			allocs = 0.05 * float64(st.ProductChecks)
		}
		bytes := map[string]float64{"fan-eq3-unsat": 4 << 10, "chain-prefix3-sat": 8 << 10}[bc.name]
		table = append(table, ceiling{fmt.Sprintf("generic/%s (%d checks)", bc.name, st.ProductChecks),
			func(tb testing.TB) int { op(tb); return 1 }, allocs, bytes})
	}
	for _, jc := range joinCases() {
		op := joinOp(t, jc.q, jc.db)
		if rows := float64(op(t)); rows >= 10000 {
			table = append(table, ceiling{fmt.Sprintf("join/%s (%.0f rows)", jc.name, rows), op, 0.05 * rows, 8 * rows})
		}
	}
	for _, ms := range mergeShapes(a) {
		op := mergeOp(ms.q)
		if transitions := float64(op(t)); transitions >= 500 {
			table = append(table, ceiling{fmt.Sprintf("merge/%s (%.0f transitions)", ms.name, transitions), op, 0.5 * transitions, 256 * transitions})
		}
	}
	for _, c := range table {
		allocs, bytes := measure(t, 20, c.op)
		t.Logf("%s: %.1f allocations and %.0f B per operation", c.name, allocs, bytes)
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s: %.0f allocations and %.0f B per operation, ceilings %.0f and %.0f", c.name, allocs, bytes, c.allocs, c.bytes)
		}
	}
}

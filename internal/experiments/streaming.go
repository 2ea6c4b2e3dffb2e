package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/core"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/invariant"
	"ecrpq/internal/query"
	"ecrpq/internal/workload"
)

// meteredRun executes fn under a fresh unlimited broker and reports the
// best-of-reps wall time together with the reservation's high-water
// mark. Peak is taken from the last rep; it is deterministic for a
// fixed instance, unlike the timing.
func meteredRun(reps int, fn func(ctx context.Context)) (time.Duration, int64) {
	best := time.Duration(0)
	var peak int64
	for i := 0; i < reps; i++ {
		broker := govern.NewBroker(0)
		res, err := broker.Reserve(1)
		invariant.NoError(err, "experiments: reserving on an unlimited broker")
		ctx := govern.NewContext(context.Background(), res)
		d := timeIt(func() { fn(ctx) })
		peak = res.Peak()
		res.Release()
		if i == 0 || d < best {
			best = d
		}
	}
	return best, peak
}

func kib(n int64) string { return fmt.Sprintf("%.1f", float64(n)/1024.0) }

// StreamingEnumeration — A10: the satisfiable fast path needs one tuple
// of the Lemma 4.3 R' sweep, not the whole V^t table. Compare
// first-witness latency and peak reserved bytes between the
// materializing pipeline (Materialize + EvaluateContext, the plan-cache
// path) and the streaming pipeline (EvaluateContext with no
// materialization, which pulls lazy sweep iterators through the
// pipelined CQ join and stops at the first witness) on the E1 and E8
// regimes.
func StreamingEnumeration(seed int64) *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:    "A10",
		Title: "Streaming enumeration: first witness without materialization",
		Claim: "design choice: satisfiability is enumerate-stop-at-first-tuple — lazy R' sweep iterators cut first-witness latency and peak reserved bytes vs materializing the V^t table",
		Headers: []string{"instance", "sat", "materialize (ms)", "stream (ms)", "speedup",
			"mat peak (KiB)", "stream peak (KiB)", "peak ratio"},
	}
	type instance struct {
		name  string
		build func() (*graphdb.DB, *query.Query)
		opts  core.Options
	}
	instances := []instance{
		{"E1 pair-chain k=4, |V|=40", func() (*graphdb.DB, *query.Query) {
			rng := rand.New(rand.NewSource(seed))
			return workload.RandomDB(rng, a, 40, 120), workload.PairChainQuery(a, 4)
		}, core.Options{Strategy: core.Reduction}},
		{"E8 fan t=3, |V|=17", func() (*graphdb.DB, *query.Query) {
			rng := rand.New(rand.NewSource(seed))
			return workload.RandomDB(rng, a, 17, 34), workload.FanQuery(a, 3)
		}, core.Options{Strategy: core.Reduction}},
	}
	// The materializing runs are multi-second, so one rep's timing noise
	// is negligible; the sub-millisecond streaming runs take best-of-5.
	const matReps, streamReps = 1, 5
	for _, in := range instances {
		db, q := in.build()
		p, err := core.Prepare(q, in.opts)
		invariant.NoError(err, "experiments: A10 prepare")

		var matSat bool
		matTime, matPeak := meteredRun(matReps, func(ctx context.Context) {
			mat, err := p.Materialize(ctx, db)
			invariant.NoError(err, "experiments: A10 materialize")
			res, err := p.EvaluateContext(ctx, db, mat)
			invariant.NoError(err, "experiments: A10 materialized evaluate")
			matSat = res.Sat
		})
		var streamSat bool
		streamTime, streamPeak := meteredRun(streamReps, func(ctx context.Context) {
			res, err := p.EvaluateContext(ctx, db, nil)
			invariant.NoError(err, "experiments: A10 streaming evaluate")
			streamSat = res.Sat
		})
		invariant.Assert(matSat == streamSat, "experiments: A10 streaming and materializing disagree on sat")

		speedup := float64(matTime) / float64(max64(int64(streamTime), 1))
		ratio := float64(matPeak) / float64(max64(streamPeak, 1))
		t.Rows = append(t.Rows, []string{
			in.name, fmt.Sprint(streamSat), ms(matTime), ms(streamTime),
			fmt.Sprintf("%.1f×", speedup), kib(matPeak), kib(streamPeak),
			fmt.Sprintf("%.1f×", ratio),
		})
	}
	t.Notes = append(t.Notes,
		"Streaming times are best-of-"+fmt.Sprint(streamReps)+" wall clock; peaks are Reservation.Peak() under an unlimited govern broker, so both columns count the same ledger charges. The materializing row pays for the full R' sweep table before the CQ join sees a tuple; the streaming row charges only the iterator chunks pulled before the first witness.")
	return t
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

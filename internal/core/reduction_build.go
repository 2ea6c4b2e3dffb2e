package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"ecrpq/internal/cq"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
	"ecrpq/internal/trace"
)

// mergedStateBytes approximates the footprint of one merged-NFA state
// (matching the per-state term of Prepared.estimateBytes); mergedViews
// charges it against the request's reservation as each view is built.
const mergedStateBytes = 32

// mergedViews applies Lemma 4.1 to every component: each is joined into a
// single-relation view covering all of its tracks. Returns the views and
// the total merged NFA state count. Prepared plans compute this once and
// reuse it across materializations. The whole pass is one core/merge span
// when ctx carries a trace, and view bytes are charged to the context's
// govern reservation as they materialize.
func mergedViews(ctx context.Context, q *query.Query, comps []component) ([]component, int, error) {
	_, sp := trace.StartSpan(ctx, "core/merge")
	defer sp.End()
	res := govern.FromContext(ctx)
	merged := make([]component, len(comps))
	states := 0
	for ci := range comps {
		c := &comps[ci]
		rel, err := mergeComponent(q.Alphabet(), c)
		if err != nil {
			return nil, 0, err
		}
		st, _ := rel.Size()
		states += st
		// The merged automaton dominates the view's footprint; charge a
		// conservative per-state estimate plus the track-index slice so
		// the governor sees plan materialization, not just evaluation.
		if err := res.Grow(int64(st)*mergedStateBytes + int64(8*len(c.tracks))); err != nil {
			return nil, 0, err
		}
		var allTracks []int
		for k := range c.tracks {
			allTracks = append(allTracks, k)
		}
		merged[ci] = component{
			tracks:    c.tracks,
			nodeVars:  c.nodeVars,
			rels:      []*synchro.Relation{rel},
			relTracks: [][]int{allTracks},
			nfas:      nfaViews([]*synchro.Relation{rel}),
		}
	}
	sp.SetInt("merged_states", int64(states))
	return merged, states, nil
}

// buildReductionMerged constructs the structure of the Lemma 4.3 instance
// from the plan's merged views: over the database's vertices, one
// materialized endpoint relation R' per merged component, each the sweep
// of all its source tuples. reductionQuery is the other half of the
// instance.
func (p *Prepared) buildReductionMerged(ctx context.Context, db *graphdb.DB) (*cq.Structure, Stats, error) {
	merged, opts := p.merged, p.opts
	stats := Stats{MergedStatesTotal: p.mergedSt}
	n := db.NumVertices()
	st := cq.NewStructure(max(n, 1))
	for ci := range merged {
		t := len(merged[ci].tracks)
		var rows []int32
		_, ssp := trace.StartSpan(ctx, "core/sweep")
		var err error
		if n > 0 {
			rows, err = sweepComponent(ctx, db, &merged[ci], opts)
		}
		if err == nil {
			err = st.LoadSorted(fmt.Sprintf("__comp%d", ci), 2*t, rows, sweepColumnOrder(t))
		}
		ssp.SetInt("component", int64(ci))
		ssp.SetInt("tracks", int64(t))
		ssp.SetInt("rows", int64(len(rows)/(2*t)))
		ssp.End()
		if err != nil {
			return nil, stats, err
		}
		stats.CQTuples += len(rows) / (2 * t)
	}
	return st, stats, nil
}

// MaxSweepSources bounds the Lemma 4.3 sweep and the Generic candidate
// enumeration: V^t tuples beyond this are refused rather than silently
// running for hours. A planner must not pick Reduction past it.
const MaxSweepSources = 1 << 32

// sweepSources is the number of tuples a sweep of t positions over n
// vertices visits, n^t, or an error past MaxSweepSources.
func sweepSources(n, t int) (int, error) {
	total := 1
	for i := 0; i < t; i++ {
		if n > 0 && total > MaxSweepSources/n {
			return 0, fmt.Errorf("core: a sweep of %d^%d tuples exceeds the safety bound", n, t)
		}
		total *= n
	}
	return total, nil
}

// sweepColumnOrder is the column order the rows of a t-track sweep ascend
// under (what cq.LoadSorted verifies and Contains searches by): source
// index ascending with track 0 fastest — so the last track's source is the
// most significant column — then destinations lexicographically.
//
//ecrpq:charged query-sized: 2t column indices
func sweepColumnOrder(t int) []int {
	var order []int
	for k := t - 1; k >= 0; k-- {
		order = append(order, 2*k)
	}
	for k := 0; k < t; k++ {
		order = append(order, 2*k+1)
	}
	return order
}

// sweepComponent materializes R' of a merged component: for every one of
// the V^t source tuples, each destination tuple reachable by satisfying
// paths, as interleaved rows (u1, v1, ..., ut, vt) back to back in one flat
// []int32, which cq.LoadSorted takes as the relation's row store and the join
// scans: a row is written once and never converted. Rows are distinct and in
// sweep order whatever the parallelism: source index ascending with track 0
// fastest, destinations lexicographic per source — the order compStream
// reproduces lazily and /v1/enumerate cursors are pinned to.
//
// Sources are swept 64 at a time (sweepKernel): the ⌈V^t/64⌉ batches are
// sharded in contiguous ranges over opts.workers() goroutines, each with
// its own kernel scratch over the shared product shape.
// A worker keeps each batch as (destination key, source word) pairs; once
// all traversals are done the row count is known, the flat slice is
// allocated once at its final size, and every worker expands its pairs
// into its own region of it. Retained rows are charged to the context's
// reservation per batch, at the bytes they take in that array, and stay
// charged on success; on failure everything the sweep charged is released.
func sweepComponent(ctx context.Context, db *graphdb.DB, merged *component, opts Options) (_ []int32, err error) {
	t := len(merged.tracks)
	total, err := sweepSources(db.NumVertices(), t)
	if err != nil {
		return nil, err
	}
	f := packProduct(db, merged)
	batches := (total + 63) / 64
	res := govern.FromContext(ctx)
	ws := make([]*sweepWorker, min(opts.workers(), batches))
	defer func() {
		for _, w := range ws {
			if w != nil {
				w.k.release()
				if err != nil {
					w.retained.Close()
				}
			}
		}
	}()
	for i := range ws {
		if ws[i], err = newSweepWorker(f, res); err != nil {
			return nil, err
		}
	}
	err = runWorkers(len(ws), func(i int, stop <-chan struct{}) error {
		w := ws[i]
		for b := i * batches / len(ws); b < (i+1)*batches/len(ws); b++ {
			select {
			case <-stop:
				return nil // a sibling failed; its error wins
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			if err := w.batch(ctx, b*64, 0, min(64, total-b*64), opts.maxStates()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, w := range ws {
		w.start = rows
		rows += w.rows
	}
	flat := make([]int32, rows*2*t)
	err = runWorkers(len(ws), func(i int, _ <-chan struct{}) error {
		return ws[i].emit(ctx, flat)
	})
	if err != nil {
		return nil, err
	}
	return flat, nil
}

// sweepWorker sweeps a contiguous range of batches. Each traversal leaves
// a segment: the batch's distinct destinations in key order, each with the
// word of batch sources that reach it — 16 bytes for up to 64 rows, so the
// rows themselves are only written once, by emit, at their final place.
type sweepWorker struct {
	k        *sweepKernel
	retained *govern.Meter // the rows' charge; kept on success
	segs     []sweepSegment
	keys     []uint64 // destination keys of all segments, back to back
	words    []uint64 // keys[j] is reached by the sources in words[j]
	rows     int
	start    int // the worker's first row in the component's array
}

// sweepSegment is one traversal's slice of the pair arrays.
type sweepSegment struct {
	first int // sweep index of the batch's source 0 (bit 0 of the words)
	end   int // the segment's pairs are keys[previous end:end]
	rows  int
}

func newSweepWorker(f *productShape, res *govern.Reservation) (*sweepWorker, error) {
	k, err := newSweepKernel(f, res.NewMeter())
	return &sweepWorker{k: k, retained: res.NewMeter()}, err
}

// batch sweeps sources first+lo … first+hi-1 into one segment. A batch
// whose traversal exceeds the state budget is re-run in halves, down to a
// single source, before the budget error is returned: the budget bounds
// each source's own search, as it did when sources were swept one by one.
func (w *sweepWorker) batch(ctx context.Context, first, lo, hi, maxStates int) error {
	err := w.k.Run(ctx, first, lo, hi, maxStates)
	if err == errStateBudget {
		if hi-lo == 1 {
			return fmt.Errorf("core: product exceeded the state budget of %d", maxStates)
		}
		mid := (lo + hi) / 2
		if err := w.batch(ctx, first, lo, mid, maxStates); err != nil {
			return err
		}
		return w.batch(ctx, first, mid, hi, maxStates)
	}
	if err != nil {
		return err
	}
	dests := w.k.dests
	w.k.sortDests(dests.keys.s)
	before, rows := cap(w.keys)+cap(w.words), 0
	for _, key := range dests.keys.s {
		word := dests.at(key)[0]
		w.keys = append(w.keys, key)
		w.words = append(w.words, word)
		rows += bits.OnesCount64(word)
	}
	if err := w.k.mem.Grow(int64(8 * (cap(w.keys) + cap(w.words) - before))); err != nil {
		return fmt.Errorf("core: product search: %w", err)
	}
	if err := w.retained.Grow(int64(rows) * 8 * int64(w.k.t)); err != nil { // 2t int32 values a row
		return err
	}
	w.segs = append(w.segs, sweepSegment{first: first, end: len(w.keys), rows: rows})
	w.rows += rows
	return nil
}

// emit expands the worker's segments into its region of the flat row array,
// rows start … start+rows-1: per segment, sources ascending, and per source
// its destinations in key order. A counting pass over the words gives every
// source its offset, so each pair is visited once per row it stands for.
func (w *sweepWorker) emit(ctx context.Context, flat []int32) error {
	t, n := w.k.t, w.k.db.NumVertices()
	out := flat[w.start*2*t : (w.start+w.rows)*2*t]
	srcs := make([]int32, 64*t)
	dst := make([]int32, t)
	begin := 0
	for _, seg := range w.segs {
		if err := ctx.Err(); err != nil {
			return err
		}
		keys, words := w.keys[begin:seg.end], w.words[begin:seg.end]
		begin = seg.end
		var next [65]int // next[i]: segment row the next row of source i goes to
		for _, word := range words {
			for ; word != 0; word &= word - 1 {
				next[bits.TrailingZeros64(word)+1]++
			}
		}
		for i := 0; i < 64; i++ {
			next[i+1] += next[i]
			decodeSource(seg.first+i, n, srcs[i*t:(i+1)*t])
		}
		for j, key := range keys {
			unpackDest(&w.k.productStep, key, dst)
			for word := words[j]; word != 0; word &= word - 1 {
				i := bits.TrailingZeros64(word)
				row := out[next[i]*2*t : (next[i]+1)*2*t]
				next[i]++
				for k := 0; k < t; k++ {
					row[2*k] = srcs[i*t+k]
					row[2*k+1] = dst[k]
				}
			}
		}
		out = out[seg.rows*2*t:]
	}
	return nil
}

// runWorkers runs body(w, stop) on `workers` goroutines and returns the
// first failure observed. A panicking worker — including an
// invariant.Violation — is recovered and surfaced as an error on the
// same channel instead of killing the process with work from its
// siblings half-done. The stop channel closes on the first failure so
// the surviving workers can bail out of long sweeps early; bodies should
// poll it between work items and return nil when it fires.
func runWorkers(workers int, body func(w int, stop <-chan struct{}) error) error {
	stop := make(chan struct{})
	errCh := make(chan error, workers)
	var stopOnce sync.Once
	fail := func(err error) {
		errCh <- err
		stopOnce.Do(func() { close(stop) })
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if err, ok := r.(error); ok {
						fail(fmt.Errorf("core: worker %d panicked: %w", w, err))
					} else {
						fail(fmt.Errorf("core: worker %d panicked: %v", w, r))
					}
				}
			}()
			if err := body(w, stop); err != nil {
				fail(err)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	return <-errCh // nil when the channel is empty
}

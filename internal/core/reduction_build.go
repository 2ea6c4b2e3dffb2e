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
	"ecrpq/internal/trace"
)

// mergedStateBytes approximates the footprint of one merged-NFA state
// (matching the per-state term of Prepared.estimateBytes); mergedViews
// charges it against the request's reservation as the merge discovers
// states.
const mergedStateBytes = 32

// mergedViews applies Lemma 4.1 to every component: each is merged into a
// single-table view covering all of its tracks, the table every product
// kernel walks. Returns the views, the total merged state count and the
// bytes charged for them. Prepared plans compute this once and reuse it
// across evaluations and materializations. The whole pass is one core/merge
// span when ctx carries a trace. A merge polls ctx and charges the states it
// discovers to the context's govern reservation as it goes, then settles
// the charge to the states trimming kept; on failure nothing stays charged.
func mergedViews(ctx context.Context, q *query.Query, comps []component) (_ []component, states int, charged int64, err error) {
	_, sp := trace.StartSpan(ctx, "core/merge")
	defer sp.End()
	mem := govern.MeterFrom(ctx)
	defer func() {
		if err != nil {
			mem.Close()
		}
	}()
	merged := make([]component, len(comps))
	for ci := range comps {
		c := &comps[ci]
		before := mem.Charged()
		tab, err := mergeComponent(ctx, q.Alphabet(), c, func(states int) error { return mem.Grow(int64(states) * mergedStateBytes) })
		if err != nil {
			return nil, 0, 0, err
		}
		states += tab.NumStates()
		// Settle on what the view keeps: a conservative estimate per state of
		// the trimmed table, the governor's view of plan materialization.
		if err := mem.Charge(before + int64(tab.NumStates())*mergedStateBytes + int64(8*len(c.tracks)) - mem.Charged()); err != nil {
			return nil, 0, 0, err
		}
		merged[ci] = component{tracks: c.tracks, nodeVars: c.nodeVars, ends: c.ends, pat: newAtomPattern(c.ends), nfa: tab}
	}
	sp.SetInt("merged_states", int64(states))
	return merged, states, mem.Charged(), nil
}

// buildReductionMerged constructs the structure of the Lemma 4.3 instance
// from the plan's merged views: over the database's vertices, one
// materialized endpoint relation R' per merged component, each the sweep
// of all its source tuples over the atom's own variables. walkQuery is the
// other half of the instance. The rows stay charged to ctx's reservation,
// unless it fails.
func (p *Prepared) buildReductionMerged(ctx context.Context, db *graphdb.DB) (*cq.Structure, Stats, error) {
	merged, opts := p.merged, p.opts
	var stats Stats
	n := db.NumVertices()
	st := cq.NewStructure(max(n, 1))
	for ci := range merged {
		t := len(merged[ci].tracks)
		var rows []int32
		_, ssp := trace.StartSpan(ctx, "core/sweep")
		var err error
		if n > 0 && !p.empty { // an empty relation leaves every R′ empty: no source is opened
			rows, err = sweepComponent(ctx, db, &merged[ci], opts, ssp)
		}
		if err == nil {
			err = st.LoadSorted(fmt.Sprintf("__comp%d", ci), 2*t, rows, sweepColumnOrder(t))
		}
		ssp.SetInt("component", int64(ci))
		ssp.SetInt("tracks", int64(t))
		ssp.SetInt("rows", int64(len(rows)/(2*t)))
		ssp.End()
		if err != nil {
			// A failed sweep gave back its own rows; these are the ones
			// loaded before it.
			govern.FromContext(ctx).Shrink(int64(st.RowBytes()))
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

// sweepSources is the number of tuples a sweep of t positions (distinct
// source variables) over n vertices visits, n^t, or an error past
// MaxSweepSources.
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
// the V^s tuples of its s distinct source variables, each destination tuple
// reachable by satisfying paths whose repeated variables agree, as
// interleaved rows (u1, v1, ..., ut, vt) back to back in one flat []int32,
// which cq.LoadSorted takes as the relation's row store and the join scans:
// a row is written once and never converted. Rows are distinct and in
// sweep order whatever the parallelism: source index ascending (the last
// track's source most significant), destinations lexicographic per source
// — the order
// sweepSource.Scan reproduces lazily and /v1/enumerate cursors are pinned
// to. They are the rows of the sweep over all V^t source tuples that the
// atom's equalities keep, in that sweep's order.
//
// A traversal (sweepKernel) carries 64w sources, w = min(maxLaneWords,
// ⌈V^s/64⌉): the batches are sharded in contiguous ranges over
// opts.workers() goroutines, each with its own kernel over the shared
// shape. A worker keeps each lane word of a batch as (destination key,
// source word) pairs; once all traversals are done the flat slice is
// allocated once at its final size, and every worker expands its pairs
// into its own region of it. Retained rows are charged to the context's
// reservation per batch, at the bytes they take in that array, kept on
// success and released on failure. sp gets the sources, lanes and traversals.
func sweepComponent(ctx context.Context, db *graphdb.DB, merged *component, opts Options, sp *trace.Span) (_ []int32, err error) {
	t := len(merged.tracks)
	total, err := sweepSources(db.NumVertices(), len(merged.pat.digits))
	if err != nil {
		return nil, err
	}
	f := packProduct(db, merged)
	words := min(maxLaneWords, max(1, (total+63)/64))
	lanes := 64 * words
	batches := (total + lanes - 1) / lanes
	res := govern.FromContext(ctx)
	ws := make([]*sweepWorker, min(opts.workers(), batches))
	defer func() {
		for _, w := range ws {
			if w != nil {
				w.k.release()
				w.lanes.release()
				if err != nil {
					w.retained.Close()
				}
			}
		}
	}()
	for i := range ws {
		if ws[i], err = newSweepWorker(f, &merged.pat, words, res); err != nil {
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
			w.decode(b*lanes, min(lanes, total-b*lanes))
			if err := w.batch(ctx, b*lanes, 0, min(lanes, total-b*lanes), opts.maxStates()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows, runs := 0, 0
	for _, w := range ws {
		w.start = rows
		rows += w.rows
		runs += w.k.runs
	}
	sp.SetInt("sources", int64(total))
	sp.SetInt("lanes", int64(lanes))
	sp.SetInt("traversals", int64(runs))
	flat := make([]int32, rows*2*t)
	err = runWorkers(len(ws), func(i int, _ <-chan struct{}) error {
		return ws[i].emit(ctx, flat)
	})
	if err != nil {
		return nil, err
	}
	return flat, nil
}

// maxLaneWords caps a sweep kernel's lane mask, in words. A variable so that
// the differential suites can run at several widths; only tests assign it.
var maxLaneWords = 8

// sweepWorker sweeps a contiguous range of batches. Each lane word of a
// traversal leaves a segment: its distinct destinations in key order, each
// with the word — 16 bytes for up to 64 rows, so the rows themselves are
// only written once, by emit, at their final place.
type sweepWorker struct {
	k        *sweepKernel
	pat      *atomPattern
	retained *govern.Meter // the rows' charge; kept on success
	segs     []sweepSegment
	keys     []uint64 // destination keys of all segments, back to back
	words    []uint64 // keys[j] is reached by the sources in words[j]
	rows     int
	start    int // the worker's first row in the component's array
	// The batch's source tuples, lane i at lanes[i*t:(i+1)*t], and one
	// destination tuple: scratch the worker reuses for every batch.
	lanes slab[int32]
	dst   []int32
}

// sweepSegment is one word's slice of the pair arrays.
type sweepSegment struct {
	first int // sweep index of the word's source 0 (bit 0 of the words)
	end   int // the segment's pairs are keys[previous end:end]
	rows  int
}

func newSweepWorker(f *productShape, pat *atomPattern, w int, res *govern.Reservation) (*sweepWorker, error) {
	k, err := newSweepKernel(f, w, res.NewMeter())
	return &sweepWorker{k: k, pat: pat, retained: res.NewMeter(),
		lanes: takeSlab[int32](64*w*f.t, false), dst: make([]int32, f.t)}, err
}

// decode fills the first size lanes with sources first … first+size-1.
func (w *sweepWorker) decode(first, size int) {
	t, n := w.k.t, w.k.db.NumVertices()
	for i := 0; i < size; i++ {
		decodeSource(w.pat, first+i, n, w.lanes.s[i*t:(i+1)*t])
	}
}

// batch sweeps the decoded lanes lo … hi-1, sources first+lo …
// first+hi-1, into a segment per word. A batch whose traversal exceeds the
// state budget is re-run in halves, down to a single source, before the
// budget error is returned: the budget bounds each source's own search, as
// it did when sources were swept one by one. Before anything is counted,
// charged or kept, the atom's equalities cut the lane masks: a destination
// tuple whose repeated destinations disagree goes, and so do the lanes
// whose source disagrees with a destination on a shared variable.
func (w *sweepWorker) batch(ctx context.Context, first, lo, hi, maxStates int) error {
	err := w.k.Run(ctx, w.lanes.s, lo, hi, maxStates)
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
	dests, keys := w.k.dests, w.k.dests.keys.s
	if w.pat.cuts {
		for _, key := range keys {
			w.cut(key, dests.at(key))
		}
	}
	w.k.sortDests(keys)
	before, added := cap(w.keys)+cap(w.words), 0
	for word := lo / 64; word <= (hi-1)/64; word++ {
		rows := 0
		for _, key := range keys {
			if m := dests.at(key)[word]; m != 0 {
				w.keys, w.words = append(w.keys, key), append(w.words, m)
				rows += bits.OnesCount64(m)
			}
		}
		if rows > 0 {
			w.segs = append(w.segs, sweepSegment{first: first + 64*word, end: len(w.keys), rows: rows})
			added += rows
		}
	}
	w.rows += added
	if err := w.k.mem.Grow(int64(8 * (cap(w.keys) + cap(w.words) - before))); err != nil {
		return fmt.Errorf("core: product search: %w", err)
	}
	return w.retained.Grow(int64(added) * 8 * int64(w.k.t)) // 2t int32 values a row
}

// cut takes out of mask, the lanes that reach the destination tuple key,
// what the atom's equalities do not keep: every lane if two of its
// destinations that must agree do not, otherwise the lanes whose source a
// destination must equal and does not.
func (w *sweepWorker) cut(key uint64, mask []uint64) {
	t, dst := w.k.t, w.dst
	unpackDest(&w.k.productStep, key, dst)
	for k, e := range w.pat.dst {
		if e >= 0 && e%2 == 1 && dst[k] != dst[e/2] {
			clear(mask)
			return
		}
	}
	for k, e := range w.pat.dst {
		if e < 0 || e%2 == 1 {
			continue
		}
		for word, m := range mask {
			for ; m != 0; m &= m - 1 {
				if i := bits.TrailingZeros64(m); w.lanes.s[(64*word+i)*t+e/2] != dst[k] {
					mask[word] &^= 1 << uint(i)
				}
			}
		}
	}
}

// emit expands the worker's segments into its region of the flat row array,
// rows start … start+rows-1: per segment, sources ascending, and per source
// its destinations in key order. A counting pass over the words gives every
// source its offset, so each pair is visited once per row it stands for.
func (w *sweepWorker) emit(ctx context.Context, flat []int32) error {
	t := w.k.t
	out := flat[w.start*2*t : (w.start+w.rows)*2*t]
	srcs, dst := w.lanes.s, w.dst
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
		}
		w.decode(seg.first, 64)
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

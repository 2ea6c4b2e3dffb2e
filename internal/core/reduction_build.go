package core

import (
	"context"
	"fmt"
	"math/bits"

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
// sweep order: source index ascending (the last track's source most
// significant), destinations lexicographic per source — the order
// sweepSource.Scan reproduces lazily and /v1/enumerate cursors are pinned
// to. They are the rows of the sweep over all V^t source tuples that the
// atom's equalities keep, in that sweep's order.
//
// A traversal (sweepKernel) carries 64w sources, w = min(maxLaneWords,
// ⌈V^s/64⌉), and its lanes are the sweep's only parallelism: one worker
// runs the batches in order on the caller's goroutine, polling ctx between
// them, and keeps each lane word of a batch as (destination key, source
// word) pairs; once all traversals are done the flat slice is allocated
// once at its final size and the worker expands its pairs into it.
// Retained rows are charged to the context's reservation per batch, at the
// bytes they take in that array, kept on success and released on failure.
// sp gets the sources, lanes and traversals, and the distinct product states
// and strongly connected components the completed traversals met.
func sweepComponent(ctx context.Context, db *graphdb.DB, merged *component, opts Options, sp *trace.Span) (_ []int32, err error) {
	t := len(merged.tracks)
	total, err := sweepSources(db.NumVertices(), len(merged.pat.digits))
	if err != nil {
		return nil, err
	}
	words := min(maxLaneWords, max(1, (total+63)/64))
	lanes := 64 * words
	w, err := newSweepWorker(packProduct(db, merged), &merged.pat, words, govern.FromContext(ctx))
	defer func() {
		w.k.release()
		w.lanes.release()
		w.keys.release()
		w.words.release()
		if err != nil {
			w.retained.Close()
		}
	}()
	if err != nil {
		return nil, err
	}
	for first := 0; first < total; first += lanes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		size := min(lanes, total-first)
		w.decode(first, size)
		if err := w.batch(ctx, first, 0, size, opts.maxStates()); err != nil {
			return nil, err
		}
	}
	sp.SetInt("sources", int64(total))
	sp.SetInt("lanes", int64(lanes))
	sp.SetInt("traversals", int64(w.k.runs))
	sp.SetInt("states", int64(w.k.states))
	sp.SetInt("sccs", int64(w.k.sccs))
	flat := make([]int32, w.rows*2*t)
	if err := w.emit(ctx, flat); err != nil {
		return nil, err
	}
	return flat, nil
}

// maxLaneWords caps a sweep kernel's lane mask, in words. A variable so that
// the differential suites can run at several widths; only tests assign it.
var maxLaneWords = 8

// sweepWorker sweeps a component's batches in order. Each lane word of a
// traversal leaves a segment: its distinct destinations in key order, each
// with the word — 16 bytes for up to 64 rows, so the rows themselves are
// only written once, by emit, at their final place.
type sweepWorker struct {
	k        *sweepKernel
	retained *govern.Meter // the rows' charge; kept on success
	segs     []sweepSegment
	keys     slab[uint64] // destination keys of all segments, back to back
	words    slab[uint64] // keys[j] is reached by the sources in words[j]
	rows     int
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
	k, err := newSweepKernel(f, pat, w, res.NewMeter())
	return &sweepWorker{k: k, retained: res.NewMeter(),
		lanes: takeSlab[int32](64*w*f.t, false), dst: make([]int32, f.t)}, err
}

// decode fills the first size lanes with sources first … first+size-1.
func (w *sweepWorker) decode(first, size int) {
	t, n := w.k.t, w.k.db.NumVertices()
	for i := 0; i < size; i++ {
		decodeSource(w.k.pat, first+i, n, w.lanes.s[i*t:(i+1)*t])
	}
}

// batch sweeps the decoded lanes lo … hi-1, sources first+lo …
// first+hi-1, into a segment per word. A batch whose traversal exceeds the
// state budget is re-run in halves, down to a single source, before the
// budget error is returned: the budget bounds each source's own search, as
// it did when sources were swept one by one.
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
	dests, keys := &w.k.dests, w.k.dests.keys.s
	w.k.sortDests(keys)
	before, added := cap(w.keys.s)+cap(w.words.s), 0
	for word := lo / 64; word <= (hi-1)/64; word++ {
		rows := 0
		for _, key := range keys {
			if m := dests.at(key)[word]; m != 0 {
				w.keys.push(key)
				w.words.push(m)
				rows += bits.OnesCount64(m)
			}
		}
		if rows > 0 {
			w.segs = append(w.segs, sweepSegment{first: first + 64*word, end: len(w.keys.s), rows: rows})
			added += rows
		}
	}
	w.rows += added
	if err := w.k.mem.Grow(int64(8 * (cap(w.keys.s) + cap(w.words.s) - before))); err != nil {
		return fmt.Errorf("core: product search: %w", err)
	}
	return w.retained.Grow(int64(added) * 8 * int64(w.k.t)) // 2t int32 values a row
}

// emit expands the worker's segments into out, the flat row array: per
// segment, sources ascending, and per source its destinations in key order.
// A counting pass over the words gives every source its offset, so each
// pair is visited once per row it stands for.
func (w *sweepWorker) emit(ctx context.Context, out []int32) error {
	t := w.k.t
	srcs, dst := w.lanes.s, w.dst
	begin := 0
	for _, seg := range w.segs {
		if err := ctx.Err(); err != nil {
			return err
		}
		keys, words := w.keys.s[begin:seg.end], w.words.s[begin:seg.end]
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

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
// ⌈V^s/64⌉), and its lanes are the sweep's only parallelism: one kernel
// runs the batches in order on the caller's goroutine, polling ctx between
// them, and keeps each lane word of a batch as (destination key, source
// word) pairs; once all traversals are done the flat slice is allocated
// once at its final size and the kernel expands its pairs into it.
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
	k, err := newSweepKernel(packProduct(db, merged), &merged.pat, words, govern.FromContext(ctx))
	defer func() { k.release(err != nil) }()
	if err != nil {
		return nil, err
	}
	for first := 0; first < total; first += lanes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		size := min(lanes, total-first)
		k.decode(first, size)
		if err := k.batch(ctx, first, 0, size, opts.maxStates()); err != nil {
			return nil, err
		}
	}
	sp.SetInt("sources", int64(total))
	sp.SetInt("lanes", int64(lanes))
	sp.SetInt("traversals", int64(k.runs))
	sp.SetInt("states", int64(k.states))
	sp.SetInt("sccs", int64(k.sccs))
	flat := make([]int32, k.rows*2*t)
	if err := k.fill(ctx, flat); err != nil {
		return nil, err
	}
	return flat, nil
}

// maxLaneWords caps a sweep kernel's lane mask, in words. A variable so that
// the differential suites can run at several widths; only tests assign it.
var maxLaneWords = 8

// decode fills the first size lanes with sources first … first+size-1.
func (k *sweepKernel) decode(first, size int) {
	t, n := k.t, k.db.NumVertices()
	for i := 0; i < size; i++ {
		decodeSource(k.pat, first+i, n, k.lanes[i*t:(i+1)*t])
	}
}

// batch sweeps the decoded lanes lo … hi-1, sources first+lo …
// first+hi-1, into a segment per word. A batch whose traversal exceeds the
// state budget is re-run in halves, down to a single source, before the
// budget error is returned: the budget bounds each source's own search, as
// it did when sources were swept one by one.
func (k *sweepKernel) batch(ctx context.Context, first, lo, hi, maxStates int) error {
	err := k.Run(ctx, k.lanes, lo, hi, maxStates)
	if err == errStateBudget {
		if hi-lo == 1 {
			return fmt.Errorf("core: product exceeded the state budget of %d", maxStates)
		}
		mid := (lo + hi) / 2
		if err := k.batch(ctx, first, lo, mid, maxStates); err != nil {
			return err
		}
		return k.batch(ctx, first, mid, hi, maxStates)
	}
	if err != nil {
		return err
	}
	k.order = k.dests.appendKeys(k.order[:0])
	k.sortDests(k.order)
	pairs, added := len(k.keys), 0
	for word := lo / 64; word <= (hi-1)/64; word++ {
		rows := 0
		for _, key := range k.order {
			if m := k.dests.at(key)[word]; m != 0 {
				k.keys = append(k.keys, key)
				k.words = append(k.words, m)
				rows += bits.OnesCount64(m)
			}
		}
		if rows > 0 {
			k.segs = append(k.segs, sweepSegment{first: first + 64*word, end: len(k.keys), rows: rows})
			added += rows
		}
	}
	k.rows += added
	if err := k.mem.Grow(int64(16 * (len(k.keys) - pairs))); err != nil {
		return fmt.Errorf("core: product search: %w", err)
	}
	return k.rowMem.Grow(int64(added) * 8 * int64(k.t)) // 2t int32 values a row
}

// fill expands the segments into out, the flat row array: per segment,
// sources ascending, and per source its destinations in key order. A
// counting pass over the words gives every source its offset, so each pair
// is visited once per row it stands for.
func (k *sweepKernel) fill(ctx context.Context, out []int32) error {
	t := k.t
	srcs, dst := k.lanes, k.dst
	begin := 0
	for _, seg := range k.segs {
		if err := ctx.Err(); err != nil {
			return err
		}
		keys, words := k.keys[begin:seg.end], k.words[begin:seg.end]
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
		k.decode(seg.first, 64)
		for j, key := range keys {
			unpackDest(&k.productStep, key, dst)
			for word := words[j]; word != 0; word &= word - 1 {
				i := bits.TrailingZeros64(word)
				row := out[next[i]*2*t : (next[i]+1)*2*t]
				next[i]++
				for c := 0; c < t; c++ {
					row[2*c] = srcs[i*t+c]
					row[2*c+1] = dst[c]
				}
			}
		}
		out = out[seg.rows*2*t:]
	}
	return nil
}

// Package stats maintains per-database statistics catalogs for the
// cost-based planner (internal/planner). A Catalog is computed once at
// register/ingest time, versioned by the database generation, persisted in
// the footer of the generation's snapshot (internal/persist), shipped with
// that snapshot in the replication record (internal/server cluster mode),
// and served at GET /v1/stats/{db}.
//
// Everything in a Catalog is database-sized-or-smaller and deterministic:
// reachability selectivities are exact reachability counts from a fixed-seed
// sample of at most 32 source vertices, all advanced together in one
// word-parallel pass per label set (reachSum), so owner and replica compute
// byte-identical catalogs for the same graph and generation — which is what
// makes "replica EXPLAIN matches owner EXPLAIN" testable.
package stats

import (
	"context"
	"encoding/json"
	"fmt"
	"math/bits"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
)

// maxSampledSources bounds the number of source samples used for reachability
// selectivity estimation; reachSum needs it to fit a mask word.
const maxSampledSources = 32

// LabelStats holds the per-label statistics of one edge label.
type LabelStats struct {
	// Label is the label name (alphabet symbol name).
	Label string `json:"label"`
	// Count is the number of edges carrying this label.
	Count int `json:"count"`
	// DistinctSrc / DistinctDst count distinct endpoint vertices with at
	// least one out-/in-edge of this label. DistinctSrc/|V| is exactly the
	// selectivity of the planner's first-label pushdown for this label.
	DistinctSrc int `json:"distinct_src"`
	DistinctDst int `json:"distinct_dst"`
	// ReachSelectivity estimates Pr[v reachable from u] over uniform (u,v)
	// when only edges of this label may be traversed, sampled from
	// SampledSources fixed-seed sources (1.0 on an empty graph by
	// convention is never emitted; empty graphs get 0).
	ReachSelectivity float64 `json:"reach_selectivity"`
}

// Catalog is the statistics catalog of one registered database at one
// generation. It is immutable after Compute and safe for concurrent use.
type Catalog struct {
	// Generation is the registry generation this catalog describes. A
	// catalog is valid for exactly one generation: re-registering a
	// database recomputes its catalog.
	Generation uint64 `json:"generation"`
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`
	// Labels has one entry per alphabet symbol, in alphabet order (also
	// the count of single-letter DFAs the planner prices: each label's
	// one-state recognizer).
	Labels []LabelStats `json:"labels"`
	// OutDegreeHist / InDegreeHist are log2-bucketed degree histograms:
	// bucket 0 counts degree-0 vertices, bucket i ≥ 1 counts vertices with
	// degree in [2^(i-1), 2^i).
	OutDegreeHist []int `json:"out_degree_hist"`
	InDegreeHist  []int `json:"in_degree_hist"`
	// AnyReachSelectivity estimates Pr[v reachable from u] over uniform
	// (u,v) with any-label edges, from the same source sample.
	AnyReachSelectivity float64 `json:"any_reach_selectivity"`
	// SampledSources is how many sources the selectivities average
	// over (min(32, |V|), deterministically chosen).
	SampledSources int `json:"sampled_sources"`
}

// catalogRowBytes approximates the retained size of one LabelStats row
// plus its share of the histogram slices.
const catalogRowBytes = 96

// MemBytes approximates the retained size of the catalog, for govern
// ledger charging and cache budgeting.
func (c *Catalog) MemBytes() int {
	if c == nil {
		return 0
	}
	return 256 + catalogRowBytes*len(c.Labels) + 8*(len(c.OutDegreeHist)+len(c.InDegreeHist))
}

// Encode serializes the catalog for the snapshot's footer, which the
// replication record ships too.
func (c *Catalog) Encode() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		// Catalog marshals unconditionally; json.Marshal cannot fail here.
		return nil
	}
	return b
}

// Decode parses an encoded catalog.
func Decode(b []byte) (*Catalog, error) {
	var c Catalog
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("stats: decoding catalog: %w", err)
	}
	return &c, nil
}

// degreeBucket maps a degree to its log2 histogram bucket.
func degreeBucket(d int) int {
	if d <= 0 {
		return 0
	}
	return bits.Len(uint(d))
}

// sampleSources picks min(maxSampledSources, n) distinct vertices with a
// fixed-constant-seed linear congruential generator. Deterministic across
// processes and platforms so replicas recompute identical catalogs.
func sampleSources(n int) []int {
	if n <= 0 {
		return nil
	}
	k := maxSampledSources
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Fisher–Yates over a virtual 0..n-1 with an LCG (Numerical Recipes
	// constants); only the first k positions are materialized.
	const (
		lcgMul = 1664525
		lcgAdd = 1013904223
	)
	state := uint32(0x9e3779b9)
	next := func(bound int) int {
		state = state*lcgMul + lcgAdd
		return int(uint64(state) * uint64(bound) >> 32)
	}
	picked := make(map[int]int, k) // virtual index → value after swaps
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		j := i + next(n-i)
		vi, ok := picked[i]
		if !ok {
			vi = i
		}
		vj, ok := picked[j]
		if !ok {
			vj = j
		}
		out = append(out, vj)
		picked[j] = vi
	}
	return out
}

// reachSum returns, summed over the sampled sources, how many vertices
// (itself included) a source reaches along edges labelled from syms. Bit i of
// mask[v] says source i reaches v; a vertex whose mask grew is queued (once,
// in a ring of one slot per vertex) and pushes the bits its successors lack.
// The masks end as the per-source reachability sets, so the sum is exactly
// that of one search per source.
func reachSum(fwd *graphdb.CSR, sources []int, syms []alphabet.Symbol, mask []uint64, queue []int32, queued []bool) int {
	clear(mask)
	n, head, pending := len(mask), 0, 0
	for i, u := range sources {
		mask[u] = 1 << i
		queue[pending], queued[u] = int32(u), true
		pending++
	}
	for pending > 0 {
		v := queue[head]
		if head++; head == n {
			head = 0
		}
		pending--
		queued[v] = false
		m := mask[v] // v is not its own target below: a self-loop adds no bit
		for _, l := range syms {
			for _, w := range fwd.Succ(int(v), l) {
				add := m &^ mask[w]
				if add == 0 {
					continue
				}
				mask[w] |= add
				if !queued[w] {
					queue[(head+pending)%n], queued[w] = w, true
					pending++
				}
			}
		}
	}
	total := 0
	for _, m := range mask {
		total += bits.OnesCount64(m)
	}
	return total
}

// Compute builds the statistics catalog for db at the given generation in
// 1 + |Σ| passes over db.Forward(). It charges the passes' scratch while they
// run, and the retained catalog, to the context's govern reservation (no-op
// when none is attached) and polls ctx between passes.
func Compute(ctx context.Context, db *graphdb.DB, gen uint64) (*Catalog, error) {
	a := db.Alphabet()
	syms := a.Symbols()
	n := db.NumVertices()
	c := &Catalog{
		Generation: gen,
		Vertices:   n,
		Edges:      db.NumEdges(),
		Labels:     make([]LabelStats, len(syms)),
	}
	for i, l := range syms {
		c.Labels[i].Label = a.Name(l)
	}
	res := govern.FromContext(ctx)
	// Scratch: per vertex a mask word, a queue slot and a queued flag for
	// reachSum, per label a lastDst entry.
	scratch := int64(n)*(8+4+1) + 8*int64(len(syms))
	if err := res.Grow(scratch); err != nil {
		return nil, err
	}
	defer res.Shrink(scratch)

	fwd := db.Forward()
	outHist := make([]int, degreeBucket(c.Edges)+1) // a degree is at most |E|, and can pass |V|
	inHist := make([]int, degreeBucket(c.Edges)+1)
	lastDst := make([]int, len(syms)) // 1 + the last vertex counted as a target of the label
	maxOut, maxIn := 0, 0
	for v := 0; v < n; v++ {
		in := db.In(v)
		outDeg := 0
		for i, l := range syms {
			if d := len(fwd.Succ(v, l)); d > 0 {
				outDeg += d
				c.Labels[i].Count += d
				c.Labels[i].DistinctSrc++
			}
		}
		for _, e := range in {
			if lastDst[e.Label] != v+1 {
				lastDst[e.Label] = v + 1
				c.Labels[e.Label].DistinctDst++
			}
		}
		outHist[degreeBucket(outDeg)]++
		inHist[degreeBucket(len(in))]++
		maxOut, maxIn = max(maxOut, outDeg), max(maxIn, len(in))
	}
	c.OutDegreeHist = outHist[:degreeBucket(maxOut)+1]
	c.InDegreeHist = inHist[:degreeBucket(maxIn)+1]

	// Sampled reachability selectivities: one pass over any label, then one
	// per label, all from the same deterministic source sample.
	sources := sampleSources(n)
	c.SampledSources = len(sources)
	if len(sources) > 0 {
		mask, queue, queued := make([]uint64, n), make([]int32, n), make([]bool, n)
		denom := float64(len(sources)) * float64(n)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.AnyReachSelectivity = float64(reachSum(fwd, sources, syms, mask, queue, queued)) / denom
		for i := range syms {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c.Labels[i].ReachSelectivity = float64(reachSum(fwd, sources, syms[i:i+1], mask, queue, queued)) / denom
		}
	}

	if err := res.Grow(int64(c.MemBytes())); err != nil {
		return nil, err
	}
	return c, nil
}

// LabelByName returns the stats row for a label name.
func (c *Catalog) LabelByName(name string) (LabelStats, bool) {
	if c == nil {
		return LabelStats{}, false
	}
	for _, l := range c.Labels {
		if l.Label == name {
			return l, true
		}
	}
	return LabelStats{}, false
}

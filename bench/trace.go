package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"ecrpq/internal/core"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/integrity"
	"ecrpq/internal/persist"
	"ecrpq/internal/plancache"
	"ecrpq/internal/planner"
	"ecrpq/internal/query"
	"ecrpq/internal/stats"
)

// The traced run measures layers from outside. Each request goes over HTTP
// under a root span; the benchmark then reads `cache` and `strategy` off
// the response and times, as child spans sharing the request id, exactly
// the exported calls that response says the server ran, on its own copy of
// the database and with its own standalone plan cache standing in for the
// server's. Spans inside the program are a later issue.

// span is one timed interval. Children are re-executions, so they start
// after their root ends; Parent, not containment, ties them to it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`    // request id: the op's index in the stream
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the start of the traced replay
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

const (
	spanRoot     = "server.request"
	spanParse    = "query.ParseString"
	spanHash     = "query.Hash"
	spanResolve  = "core.Explain+planner.Resolve"
	spanPrepare  = "core.PrepareContext"
	spanMat      = "Prepared.Materialize"
	spanEval     = "Prepared.EvaluateContextHinted"
	spanAnswers  = "core.AnswersContext"
	spanEnumPage = "Prepared.Enumerate+Next"
	spanGet      = "plancache.Get"
	spanPut      = "plancache.Put"
	spanDBParse  = "graphdb.ParseString"
	spanStats    = "stats.Compute"
	spanDigest   = "integrity.Compute"
	spanEncode   = "persist.EncodeSnapshot"
	spanDecode   = "persist.DecodeSnapshot"
	spanAppend   = "Store.AppendRegisterWithSidecars"
)

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) add(name string, req, parent int, start, end time.Time) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return id
}

func (r *recorder) timed(name string, req, parent int, f func()) {
	start := time.Now()
	f()
	r.add(name, req, parent, start, time.Now())
}

// mirror re-executes, layer by layer, what the responses say the server
// did. Its plan cache has the server's budget and sees the server's key
// sequence; its generations follow the stream's registrations.
type mirror struct {
	rec     *recorder
	cache   *plancache.Cache
	store   *persist.Store // scratch store for the journal append
	gen     map[string]uint64
	nextGen uint64
	cats    map[string]*stats.Catalog
	matKB   []float64 // TotalAlloc across each timed Materialize
	snapBPE []float64 // snapshot bytes per edge, per timed encode
	err     error     // first library error: the traced run fails on it
}

func newMirror(w *workload, rec *recorder, scratch string) (*mirror, error) {
	dir, err := os.MkdirTemp(scratch, "trace-store-")
	if err != nil {
		return nil, err
	}
	st, err := persist.Open(dir)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	m := &mirror{rec: rec, cache: plancache.New(w.cacheBudget), store: st,
		gen: map[string]uint64{}, cats: map[string]*stats.Catalog{}}
	// Set-up registers every database once; so does the mirror, which is
	// how the registration layers get numbers on every workload.
	for _, d := range w.dbs {
		m.register(-1, -1, d, d.text)
	}
	return m, m.err
}

func (m *mirror) close() error {
	dir := m.store.Dir()
	return errors.Join(m.store.Close(), os.RemoveAll(dir))
}

func (m *mirror) fail(err error) {
	if err != nil && m.err == nil {
		m.err = err
	}
}

// register times the calls a registration makes and bumps the generation.
func (m *mirror) register(req, parent int, d *builtDB, text string) {
	m.nextGen++
	gen := m.nextGen
	ctx := context.Background()
	var db *graphdb.DB
	var cat *stats.Catalog
	var dg integrity.Digest
	var snap []byte
	var err error
	m.rec.timed(spanDBParse, req, parent, func() { db, err = graphdb.ParseString(text) })
	if err != nil {
		m.fail(err)
		return
	}
	m.rec.timed(spanStats, req, parent, func() { cat, err = stats.Compute(ctx, db, gen) })
	m.fail(err)
	m.rec.timed(spanDigest, req, parent, func() { dg = integrity.Compute(db, gen) })
	m.rec.timed(spanEncode, req, parent, func() { snap = persist.EncodeSnapshot(db) })
	m.snapBPE = append(m.snapBPE, float64(len(snap))/float64(db.NumEdges()))
	if req < 0 {
		// Restart-path cost; no request pays it, so it is only sampled here.
		m.rec.timed(spanDecode, req, parent, func() { _, err = persist.DecodeSnapshot(snap) })
		m.fail(err)
	}
	m.rec.timed(spanAppend, req, parent, func() {
		err = m.store.AppendRegisterWithSidecars(ctx, d.name, gen, time.Now(), db, cat.Encode(), dg.Encode())
	})
	m.fail(err)
	if old, ok := m.gen[d.name]; ok {
		m.cache.InvalidateGeneration(old)
	}
	m.gen[d.name] = gen
	m.cats[d.name] = cat
}

func (m *mirror) get(req, parent int, k plancache.Key) (v any, ok bool) {
	m.rec.timed(spanGet, req, parent, func() { v, ok = m.cache.Get(k) })
	return v, ok
}

func (m *mirror) put(req, parent int, k plancache.Key, v any, size int) {
	m.rec.timed(spanPut, req, parent, func() { m.cache.Put(k, v, size) })
}

// maybeTimed runs f under a span when the response says the server did
// this work, and silently when only the mirror needs the value.
func (m *mirror) maybeTimed(serverDid bool, name string, req, parent int, f func()) {
	if serverDid {
		m.rec.timed(name, req, parent, f)
	} else {
		f()
	}
}

func strategyOf(name string) core.Strategy {
	switch name {
	case "generic":
		return core.Generic
	case "reduction":
		return core.Reduction
	}
	return core.Auto
}

// replay re-executes one answered op under its root span.
func (m *mirror) replay(req, root int, o *op, out *outcome) {
	if o.kind == kindRegister {
		m.register(req, root, o.db, string(o.body))
		return
	}
	ctx := context.Background()
	db := o.db.db
	gen := m.gen[o.db.name]
	resp := &out.resp
	var q *query.Query
	var hash string
	var err error
	m.rec.timed(spanParse, req, root, func() { q, err = query.ParseString(o.text) })
	if err != nil {
		m.fail(err)
		return
	}
	m.rec.timed(spanHash, req, root, func() { hash = query.Hash(q) })
	opts := core.Options{Strategy: strategyOf(o.p.strategy), Parallelism: -1}

	resolve := func() *planner.Decision {
		plan, err := core.Explain(q, opts)
		if err != nil {
			m.fail(err)
			return nil
		}
		return planner.Resolve(m.cats[o.db.name], plan, opts, planner.Config{})
	}
	switch o.kind {
	case kindExplain:
		m.rec.timed(spanResolve, req, root, func() { resolve() })
		return
	case kindAnswers:
		m.rec.timed(spanAnswers, req, root, func() { _, err = core.AnswersContext(ctx, db, q, opts) })
		m.fail(err)
		return
	}

	// The server's order: planner decision (auto only), compiled plan,
	// materialisation (reduction only), evaluation.
	var dec *planner.Decision
	if opts.Strategy == core.Auto {
		key := plancache.Key{QueryHash: hash, Strategy: "auto", DBGen: gen}
		if v, ok := m.get(req, root, key); ok {
			dec, _ = v.(*planner.Decision)
		}
		if dec == nil || resp.Cache != "hit" {
			m.maybeTimed(resp.Cache != "hit", spanResolve, req, root, func() { dec = resolve() })
			if dec == nil {
				return
			}
			m.put(req, root, key, dec, 256+8*len(dec.ComponentOrder)+128*len(dec.Stages))
		}
	}
	opts.Strategy = strategyOf(resp.Strategy)
	planKey := plancache.Key{QueryHash: hash, Strategy: resp.Strategy, DBGen: 0}
	var prepared *core.Prepared
	if v, ok := m.get(req, root, planKey); ok {
		prepared, _ = v.(*core.Prepared)
	}
	if prepared == nil || resp.Cache == "miss" {
		m.maybeTimed(resp.Cache == "miss", spanPrepare, req, root, func() { prepared, err = core.PrepareContext(ctx, q, opts) })
		if err != nil {
			m.fail(err)
			return
		}
		m.put(req, root, planKey, prepared, prepared.MemBytes())
	}
	if o.kind == kindEnumerate {
		for page := 0; page < out.pages; page++ {
			m.rec.timed(spanEnumPage, req, root, func() { m.fail(pull(ctx, prepared, db, (page+1)*enumLimit+1)) })
		}
		return
	}
	var mat *core.Materialization
	if prepared.Strategy() == core.Reduction {
		key := plancache.Key{QueryHash: hash, Strategy: resp.Strategy, DBGen: gen}
		if v, ok := m.get(req, root, key); ok {
			mat, _ = v.(*core.Materialization)
		}
		if built := resp.Cache == "miss" || resp.Cache == "partial"; mat == nil || built {
			var m0, m1 runtime.MemStats
			if built {
				runtime.ReadMemStats(&m0)
			}
			m.maybeTimed(built, spanMat, req, root, func() { mat, err = prepared.Materialize(ctx, db) })
			if err != nil {
				m.fail(err)
				return
			}
			if built {
				runtime.ReadMemStats(&m1)
				m.matKB = append(m.matKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
			}
			m.put(req, root, key, mat, mat.MemBytes())
		}
	}
	var hints *core.PlanHints
	if dec != nil && prepared.Strategy() == core.Generic {
		hints = &core.PlanHints{ComponentOrder: dec.ComponentOrder}
		if dec.Pushdown {
			hints.Candidates = prepared.PushdownCandidates(db)
		}
	}
	m.rec.timed(spanEval, req, root, func() { _, err = prepared.EvaluateContextHinted(ctx, db, mat, hints) })
	m.fail(err)
}

// pull opens an enumeration, takes up to n tuples and closes it: one page
// of the stateless cursor protocol, which re-runs the skipped prefix.
func pull(ctx context.Context, p *core.Prepared, db *graphdb.DB, n int) error {
	it, err := p.Enumerate(ctx, db)
	if err != nil {
		return err
	}
	defer it.Close()
	for i := 0; i < n; i++ {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	return it.Err()
}

// gcCPU reads the runtime's GC and total CPU-seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// plainRun is what the untraced replay yields: the prefix length, the
// latency total the traced replay is compared with, and the runtime's own
// counters over a window in which only the server and one client ran.
type plainRun struct {
	ops      int
	lat      time.Duration
	heapSys  uint64
	mallocs  uint64
	gcCPUPct float64
	bad      failures
}

// plainReplay boots a fresh server and has a single client replay the
// measured stream, recorder off, for the given wall time.
func plainReplay(w *workload, warm, meas *stream, wall time.Duration, scratch string) (pr *plainRun, err error) {
	n, _, err := setUp(w, warm, scratch)
	if err != nil {
		return nil, err
	}
	pr = &plainRun{}
	defer func() { err = errors.Join(err, n.close()) }()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPU()
	pr.ops = replay(n, meas, 1, 0, math.MaxInt, time.Now().Add(wall), func(_ int, r result, o *op, out *outcome) {
		if out.err != nil {
			pr.bad.add("untraced op %d (%v): %v", r.idx, o.p, out.err)
		}
		pr.lat += out.lat
	})
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := gcCPU()
	pr.heapSys, pr.mallocs = m1.HeapSys, m1.Mallocs-m0.Mallocs
	if cpu1 > cpu0 {
		pr.gcCPUPct = 100 * (gc1 - gc0) / (cpu1 - cpu0)
	}
	return pr, nil
}

// tracedRun is the raw material of the per-layer metrics.
type tracedRun struct {
	spans    []span
	roots    []int // span id of each op's root
	results  []result
	matKB    []float64
	snapBPE  []float64
	cache    plancache.Stats // Server.CacheStats delta over the replay
	rejected uint64
	timeouts uint64
	peak     int64 // GovernStats().PeakBytes
	bad      failures
}

// tracedReplay boots a fresh server and has a single client replay ops
// 0…ops-1 of the measured stream, each under a root span, followed by the
// mirror's re-execution of what the response says ran.
func tracedReplay(w *workload, warm, meas *stream, ops int, scratch string) (tr *tracedRun, err error) {
	n, _, err := setUp(w, warm, scratch)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, n.close()) }()
	rec := &recorder{t0: time.Now()}
	m, err := newMirror(w, rec, scratch)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, m.close()) }()
	tr = &tracedRun{}
	cs0 := n.srv.CacheStats()
	replay(n, meas, 1, 0, ops, time.Time{}, func(_ int, r result, o *op, out *outcome) {
		root := rec.add(spanRoot, r.idx, -1, r.began, r.began.Add(r.lat))
		tr.roots = append(tr.roots, root)
		tr.results = append(tr.results, r)
		if out.err != nil {
			tr.bad.add("traced op %d (%v): %v", r.idx, o.p, out.err)
			return
		}
		m.replay(r.idx, root, o, out)
	})
	if m.err != nil {
		return nil, fmt.Errorf("traced run: %w", m.err)
	}
	cs1 := n.srv.CacheStats()
	tr.cache = plancache.Stats{Hits: cs1.Hits - cs0.Hits, Misses: cs1.Misses - cs0.Misses,
		Evictions: cs1.Evictions - cs0.Evictions, Rejected: cs1.Rejected - cs0.Rejected}
	reg := n.srv.Metrics()
	tr.rejected = reg.Counter("admission_rejected_total").Value()
	tr.timeouts = reg.Counter("query_timeouts_total").Value()
	tr.peak = n.srv.GovernStats().PeakBytes
	tr.spans, tr.matKB, tr.snapBPE = rec.spans, m.matKB, m.snapBPE
	return tr, nil
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// median sorts v and returns its median divided by per.
func median(v []float64, per float64) float64 {
	sort.Float64s(v)
	return quantile(v, 0.5) / per
}

// layerTimes folds a traced run's spans: durations by span name, each
// root's child total, and per workload class the time in roots and in the
// child spans of each name.
type layerTimes struct {
	byName  map[string][]float64 // ns
	child   map[int]float64      // root span id → Σ child ns
	classNS []map[string]float64 // class → span name → Σ ns (spanRoot: Σ root ns)
}

func foldSpans(w *workload, tr *tracedRun) layerTimes {
	lt := layerTimes{byName: map[string][]float64{}, child: map[int]float64{}}
	for range w.classes {
		lt.classNS = append(lt.classNS, map[string]float64{})
	}
	classOf := make(map[int]int, len(tr.roots))
	for i, root := range tr.roots {
		classOf[root] = tr.results[i].class
	}
	for _, s := range tr.spans {
		d := float64(s.dur())
		lt.byName[s.Name] = append(lt.byName[s.Name], d)
		switch {
		case s.Parent >= 0:
			lt.child[s.Parent] += d
			lt.classNS[classOf[s.Parent]][s.Name] += d
		case s.Req >= 0:
			lt.classNS[classOf[s.ID]][spanRoot] += d
		}
	}
	return lt
}

// perLayerValues turns the two replays into the per-layer metrics.
func perLayerValues(pr *plainRun, tr *tracedRun, lt layerTimes) map[string]float64 {
	ops := float64(len(tr.roots))
	var selfs, bytesPer, rowsPer []float64
	byKind := map[opKind][]float64{}
	layer := map[string]float64{}
	var st core.Stats
	for i, root := range tr.roots {
		r := tr.results[i]
		d := float64(tr.spans[root].dur())
		selfs = append(selfs, d-lt.child[root])
		bytesPer = append(bytesPer, float64(r.bytes))
		if r.ok {
			byKind[r.kind] = append(byKind[r.kind], d)
		}
		if r.kind == kindAnswers {
			rowsPer = append(rowsPer, float64(r.rows))
		}
		st.CQTuples += r.stats.CQTuples
		st.ProductChecks += r.stats.ProductChecks
		st.NodeAssignments += r.stats.NodeAssignments
		st.MergedStatesTotal += r.stats.MergedStatesTotal
	}
	for _, c := range lt.classNS {
		for name, ns := range c {
			layer[name] += ns
		}
	}
	traced := layer[spanRoot]
	share := func(ns float64) float64 { return 100 * ns / traced }
	med := func(name string, per float64) float64 { return median(lt.byName[name], per) }
	hitRatio := 0.0
	if lookups := tr.cache.Hits + tr.cache.Misses; lookups > 0 {
		hitRatio = float64(tr.cache.Hits) / float64(lookups)
	}
	const us, ms, mib = 1e3, 1e6, 1 << 20
	return map[string]float64{
		"query.parse_us":                  med(spanParse, us),
		"query.hash_us":                   med(spanHash, us),
		"server.self_us":                  median(selfs, us),
		"server.encode_bytes_per_op":      mean(bytesPer),
		"plancache.get_ns":                med(spanGet, 1),
		"plancache.put_ns":                med(spanPut, 1),
		"plancache.hit_ratio":             hitRatio,
		"plancache.evictions":             float64(tr.cache.Evictions),
		"plancache.rejected":              float64(tr.cache.Rejected),
		"core.evaluate_us":                med(spanEval, us),
		"core.prepare_us":                 med(spanPrepare, us),
		"core.materialize_ms":             med(spanMat, ms),
		"core.materialize_alloc_kb":       mean(tr.matKB),
		"core.cq_tuples_per_op":           float64(st.CQTuples) / ops,
		"core.product_checks_per_op":      float64(st.ProductChecks) / ops,
		"core.node_assignments_per_op":    float64(st.NodeAssignments) / ops,
		"core.merged_states_per_op":       float64(st.MergedStatesTotal) / ops,
		"planner.resolve_us":              med(spanResolve, us),
		"core.answers_ms":                 med(spanAnswers, ms),
		"core.enumerate_page_us":          med(spanEnumPage, us),
		"core.answers_rows_per_op":        mean(rowsPer),
		"graphdb.parse_ms":                med(spanDBParse, ms),
		"stats.compute_ms":                med(spanStats, ms),
		"integrity.compute_ms":            med(spanDigest, ms),
		"persist.encode_ms":               med(spanEncode, ms),
		"persist.decode_ms":               med(spanDecode, ms),
		"persist.append_register_ms":      med(spanAppend, ms),
		"persist.snapshot_bytes_per_edge": mean(tr.snapBPE),
		"server.register_p50_ms":          median(byKind[kindRegister], ms),
		"server.query_p50_ms":             median(byKind[kindBool], ms),
		"server.enumerate_p50_ms":         median(byKind[kindEnumerate], ms),
		"server.answers_p50_ms":           median(byKind[kindAnswers], ms),
		"server.rejected":                 float64(tr.rejected),
		"server.timeouts":                 float64(tr.timeouts),
		"govern.reserved_peak_mb":         float64(tr.peak) / mib,
		"runtime.heap_peak_mb":            float64(pr.heapSys) / mib,
		"runtime.gc_cpu_pct":              pr.gcCPUPct,
		"runtime.allocs_per_op":           float64(pr.mallocs) / float64(pr.ops),
		"core.materialize_share_pct":      share(layer[spanMat]),
		"core.evaluate_share_pct":         share(layer[spanEval]),
		"server.front_share_pct":          share(sum(selfs) + layer[spanParse] + layer[spanHash]),
		"server.register_share_pct":       share(sum(byKind[kindRegister])),
		"trace.overhead_pct":              100 * (traced - float64(pr.lat)) / float64(pr.lat),
	}
}

// traceConsistent is the sanity check on the attribution: a request's
// child spans are re-executions of part of what its root span covered, so
// they should not add up to more than the root. Two runs of one
// satisfiable product search differ by a third or more (the search order
// follows Go's randomised map iteration) and a GC cycle may land in either,
// so single requests do go over; what must hold is that the child spans
// stay within 1.1x of the roots in total and within 2x of their own root on
// at least 95 % of requests.
func traceConsistent(tr *tracedRun, lt layerTimes) error {
	var roots, children float64
	within := 0
	for _, root := range tr.roots {
		r := float64(tr.spans[root].dur())
		roots += r
		children += lt.child[root]
		if lt.child[root] <= 2*r {
			within++
		}
	}
	if children > 1.1*roots || float64(within) < 0.95*float64(len(tr.roots)) {
		return fmt.Errorf("trace_inconsistent: child spans total %.2fx the root spans and stay within 2x of their root on %d of %d requests",
			children/roots, within, len(tr.roots))
	}
	return nil
}

// plainFraction of --seconds goes to the untraced replay; the traced one
// then replays the same ops, which takes about twice as long.
const plainFraction = 0.3

// runTraced produces the per-layer metrics of one workload. A fresh server
// and a single client replay a prefix of the measured stream with the
// recorder off (this fixes the prefix length and gives the runtime.*
// numbers); a second fresh server replays the same prefix with the
// recorder on. The latency difference between the two replays is
// trace.overhead_pct.
func runTraced(name string, seed int64, seconds float64, scratch, outPath string) (*report, error) {
	w, warm, err := prepare(name, seed)
	if err != nil {
		return nil, err
	}
	meas := newStream(w, seed, 'm')
	pr, err := plainReplay(w, warm, meas, time.Duration(plainFraction*seconds*float64(time.Second)), scratch)
	if err != nil {
		return nil, err
	}
	tr, err := tracedReplay(w, warm, meas, pr.ops, scratch)
	if err != nil {
		return nil, err
	}
	if outPath != "" {
		data, err := json.Marshal(tr.spans)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return nil, err
		}
	}
	lt := foldSpans(w, tr)
	vals := perLayerValues(pr, tr, lt)
	checkErr := traceConsistent(tr, lt)
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "bench:", checkErr)
	}
	pr.bad.report()
	tr.bad.report()
	failed := pr.bad.count + tr.bad.count
	rep := &report{Correct: failed == 0 && checkErr == nil, Attempted: pr.ops, Failed: failed, Metrics: map[string]metric{}}
	for _, pl := range perLayer {
		rep.Metrics[pl.name] = metric{vals[pl.name], pl.unit}
	}
	fmt.Printf("%s seed=%d traced: %d ops, %d spans, %d failed\n", name, seed, pr.ops, len(tr.spans), failed)
	for ci, c := range w.classes {
		ns := lt.classNS[ci]
		if root := ns[spanRoot]; root > 0 {
			children := 0.0
			for name, d := range ns {
				if name != spanRoot {
					children += d
				}
			}
			fmt.Printf("  class %-10s of server.request time: materialize %.1f%%, evaluate %.1f%%, query.* + server self %.1f%%\n", c.name,
				100*ns[spanMat]/root, 100*ns[spanEval]/root, 100*(root-children+ns[spanParse]+ns[spanHash])/root)
		}
	}
	return rep, nil
}

// perLayer is the per-layer metric list, in BENCHMARK.json's order.
var perLayer = []struct{ name, unit string }{
	{"query.parse_us", "us"},
	{"query.hash_us", "us"},
	{"server.self_us", "us"},
	{"server.encode_bytes_per_op", "B"},
	{"plancache.get_ns", "ns"},
	{"plancache.put_ns", "ns"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.evictions", "count"},
	{"plancache.rejected", "count"},
	{"core.evaluate_us", "us"},
	{"core.prepare_us", "us"},
	{"core.materialize_ms", "ms"},
	{"core.materialize_alloc_kb", "KiB"},
	{"core.cq_tuples_per_op", "count"},
	{"core.product_checks_per_op", "count"},
	{"core.node_assignments_per_op", "count"},
	{"core.merged_states_per_op", "count"},
	{"planner.resolve_us", "us"},
	{"core.answers_ms", "ms"},
	{"core.enumerate_page_us", "us"},
	{"core.answers_rows_per_op", "count"},
	{"graphdb.parse_ms", "ms"},
	{"stats.compute_ms", "ms"},
	{"integrity.compute_ms", "ms"},
	{"persist.encode_ms", "ms"},
	{"persist.decode_ms", "ms"},
	{"persist.append_register_ms", "ms"},
	{"persist.snapshot_bytes_per_edge", "B"},
	{"server.register_p50_ms", "ms"},
	{"server.query_p50_ms", "ms"},
	{"server.enumerate_p50_ms", "ms"},
	{"server.answers_p50_ms", "ms"},
	{"server.rejected", "count"},
	{"server.timeouts", "count"},
	{"govern.reserved_peak_mb", "MiB"},
	{"runtime.heap_peak_mb", "MiB"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.allocs_per_op", "count"},
	{"core.materialize_share_pct", "%"},
	{"core.evaluate_share_pct", "%"},
	{"server.front_share_pct", "%"},
	{"server.register_share_pct", "%"},
	{"trace.overhead_pct", "%"},
}

package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ecrpq/internal/core"
)

const (
	setupRuns = 3           // set-up is repeated and setup_s is the median
	segment   = time.Second // the measured phase runs in segments; the yardstick (ref.go) is timed between them
	minOps    = 20          // fewer correct ops than this is no measurement
)

// result is what the measured phase keeps of one op.
type result struct {
	idx   int
	seg   int // the measured segment the op ran in
	class int
	kind  opKind
	ok    bool
	lat   time.Duration
	bytes int
	rows  int
	pages int
	cache string
	stats core.Stats
	began time.Time // just before the request was written
	done  time.Time // when the response had been read and checked
}

// replay drives stream ops from, from+1, … from nclients closed-loop
// clients: each takes the next index, runs the op to completion and only
// then takes another. It stops handing out ops at limit or once the
// deadline (if any) has passed; ops in flight finish. It returns the index
// of the first op it did not run.
func replay(n *node, s *stream, nclients, from, limit int, deadline time.Time, each func(client int, r result, o *op, out *outcome)) int {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	for c := 0; c < nclients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				o := s.at(i)
				began := time.Now()
				out := n.do(o)
				each(c, result{
					idx: i, class: o.class, kind: o.kind, ok: out.err == nil, lat: out.lat,
					bytes: out.bytes, rows: out.rows, pages: out.pages,
					cache: out.resp.Cache, stats: out.resp.Stats, began: began, done: time.Now(),
				}, o, &out)
			}
		}(c)
	}
	wg.Wait()
	return int(min(next.Load(), int64(limit)))
}

// failures collects op failures; the first few are printed.
type failures struct {
	mu    sync.Mutex
	count int
	first []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if len(f.first) < 5 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

func (f *failures) report() {
	for _, m := range f.first {
		fmt.Fprintln(os.Stderr, "bench: failed:", m)
	}
}

// setUp is everything setup_s covers: server construction, store open,
// database registration over HTTP and cache warm-up with real requests,
// up to the first measured op. The warm-up stream and the oracle are
// prepared by the caller, outside the clock.
func setUp(w *workload, warm *stream, scratch string) (*node, time.Duration, error) {
	start := time.Now()
	n, err := boot(w, scratch)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*node, time.Duration, error) {
		return nil, 0, errors.Join(err, n.close())
	}
	for _, d := range w.dbs {
		if _, err := n.register(d, d.text); err != nil {
			return fail(err)
		}
	}
	if w.warmPairs {
		for ci := range w.classes {
			c := &w.classes[ci]
			for _, p := range c.pairs {
				if out := n.do(&op{kind: c.kind, class: ci, p: p, db: p.db, text: p.text, body: p.body}); out.err != nil {
					return fail(fmt.Errorf("warming %s: %w", p, out.err))
				}
			}
		}
	}
	var bad failures
	replay(n, warm, clients, 0, w.warmOps, time.Time{}, func(_ int, r result, o *op, out *outcome) {
		if out.err != nil {
			bad.add("warm-up op %d (%v): %v", r.idx, o.p, out.err)
		}
	})
	if bad.count > 0 {
		bad.report()
		return fail(fmt.Errorf("%d warm-up op(s) failed", bad.count))
	}
	n.strict = true
	return n, time.Since(start), nil
}

// prepare builds the workload, its oracle and its warm-up stream.
func prepare(name string, seed int64) (*workload, *stream, error) {
	w, err := buildWorkload(name)
	if err != nil {
		return nil, nil, err
	}
	if err := fillOracle(w); err != nil {
		return nil, nil, err
	}
	return w, newStream(w, seed, 'w'), nil
}

// report is one run's outcome in the shape the last output line takes.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is the end-to-end metric list, in BENCHMARK.json's order.
var endToEnd = []struct{ name, unit string }{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"setup_s", "s"},
}

// runMeasured produces the end-to-end metrics of one workload: set-up
// setupRuns times (the last server is the one measured), then a closed
// loop of `clients` clients for the given wall time, benchmark tracing off.
//
// The measured phase runs in segments of one second. Between segments no
// request is in flight and the yardstick of ref.go is timed; a segment's
// slowdown is the mean of the readings before and after it. Every time is
// divided by the slowdown of the segment (or set-up) it was taken in.
func runMeasured(name string, seed int64, seconds float64, scratch string) (rep *report, err error) {
	w, warm, err := prepare(name, seed)
	if err != nil {
		return nil, err
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, ref.close()) }()
	ref.slowdown()   // faults the tables in
	var slow float64 // the latest reading
	var n *node
	var setups, rawSetups []float64
	for i := 0; i < setupRuns; i++ {
		if n != nil {
			if err := n.close(); err != nil {
				return nil, err
			}
		}
		before := ref.slowdown()
		var d time.Duration
		if n, d, err = setUp(w, warm, scratch); err != nil {
			return nil, err
		}
		slow = ref.slowdown()
		rawSetups = append(rawSetups, d.Seconds())
		setups = append(setups, d.Seconds()*2/(before+slow))
	}
	defer func() {
		if n != nil {
			err = errors.Join(err, n.close())
		}
	}()

	meas := newStream(w, seed, 'm')
	per := make([][]result, clients)
	var bad failures
	var wmu sync.Mutex
	var kept []*witness

	type seg struct {
		from time.Time
		slow float64
	}
	var segs []seg
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	attempted := 0
	var wall time.Duration
	for wall.Seconds() < seconds {
		from := time.Now()
		attempted = replay(n, meas, clients, attempted, math.MaxInt, from.Add(segment),
			func(c int, r result, o *op, out *outcome) {
				r.seg = len(segs)
				per[c] = append(per[c], r)
				if out.err != nil {
					bad.add("op %d (%v): %v", r.idx, o.p, out.err)
					return
				}
				if o.kind == kindBool && out.resp.Sat && r.idx%sampleRate == 0 {
					wmu.Lock()
					kept = append(kept, &witness{db: o.db, text: o.text, nodes: out.resp.Nodes, paths: out.resp.Paths})
					wmu.Unlock()
				}
			})
		wall += time.Since(from)
		after := ref.slowdown()
		segs = append(segs, seg{from, (slow + after) / 2})
		slow = after
	}
	runtime.ReadMemStats(&m1)

	// The clock has stopped: witnesses, then the workload's own invariants.
	for _, wt := range kept {
		if err := wt.verify(); err != nil {
			bad.add("witness: %v", err)
		}
	}
	// Latencies are normalised op by op and their percentiles taken over
	// the whole run, so that each rests on every sample; throughput is taken
	// per segment and the median segment is reported, so that a second in
	// which the sandbox loses a vCPU moves one segment, not the result.
	count := make([]int, len(segs))
	last := make([]time.Time, len(segs))
	var lats, rawLats, slows []float64
	var slowest time.Duration
	for _, rs := range per {
		for _, r := range rs {
			if !r.ok {
				continue
			}
			ms := float64(r.lat) / float64(time.Millisecond)
			rawLats = append(rawLats, ms)
			lats = append(lats, ms/segs[r.seg].slow)
			slowest = max(slowest, r.lat)
			count[r.seg]++
			if r.done.After(last[r.seg]) {
				last[r.seg] = r.done
			}
		}
	}
	okOps := len(lats)
	var tput []float64
	for i, sg := range segs {
		slows = append(slows, sg.slow)
		if count[i] > 0 {
			tput = append(tput, float64(count[i])/last[i].Sub(sg.from).Seconds()*sg.slow)
		}
	}
	selfErr := selfCheck(w, n, per)
	bad.report()
	if selfErr != nil {
		fmt.Fprintln(os.Stderr, "bench: self-check:", selfErr)
	}
	if okOps < minOps {
		return nil, fmt.Errorf("%s: %d of %d ops succeeded, too few to measure", name, okOps, attempted)
	}
	sort.Float64s(lats)
	sort.Float64s(rawLats)
	sort.Float64s(slows)
	rep = &report{
		Correct:   bad.count == 0 && selfErr == nil,
		Attempted: attempted,
		Failed:    bad.count,
		Metrics:   map[string]metric{},
	}
	for i, v := range []float64{
		median(tput, 1),
		quantile(lats, 0.50),
		quantile(lats, 0.95),
		float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(okOps),
		median(setups, 1),
	} {
		rep.Metrics[endToEnd[i].name] = metric{v, endToEnd[i].unit}
	}
	cs := n.srv.CacheStats()
	fmt.Printf("%s seed=%d: %d ops in %.2fs, %d failed, slowest %.1fms, %d witnesses verified; cache hits=%d misses=%d evictions=%d rejected=%d\n",
		name, seed, attempted, wall.Seconds(), bad.count, float64(slowest)/float64(time.Millisecond), len(kept),
		cs.Hits, cs.Misses, cs.Evictions, cs.Rejected)
	fmt.Printf("  as measured, before normalising: %.1f ops/s, p50=%.3fms p95=%.3fms, set-up %.3fs; yardstick slowdown median %.3f (min %.3f, max %.3f)\n",
		float64(okOps)/wall.Seconds(), quantile(rawLats, 0.5), quantile(rawLats, 0.95), median(rawSetups, 1),
		quantile(slows, 0.5), slows[0], slows[len(slows)-1])
	for ci, c := range w.classes {
		var cl []float64
		for _, rs := range per {
			for _, r := range rs {
				if r.ok && r.class == ci {
					cl = append(cl, float64(r.lat)/float64(time.Millisecond))
				}
			}
		}
		sort.Float64s(cl)
		if len(cl) > 0 {
			fmt.Printf("  class %-10s n=%-6d p50=%.3fms p95=%.3fms (as measured)\n", c.name, len(cl), quantile(cl, 0.5), quantile(cl, 0.95))
		}
	}
	return rep, nil
}

// selfCheck holds a finished measured phase to its workload's invariants.
func selfCheck(w *workload, n *node, per [][]result) error {
	cs := n.srv.CacheStats()
	switch w.name {
	case "hot-cache":
		if cs.Evictions != 0 || cs.Rejected != 0 {
			return fmt.Errorf("hot-cache: %d evictions, %d rejected puts; want none", cs.Evictions, cs.Rejected)
		}
	case "mixed-rw":
		hits, total := 0, 0
		for _, rs := range per {
			for _, r := range rs {
				if r.ok && r.kind == kindBool {
					total++
					if r.cache == "hit" {
						hits++
					}
				}
			}
		}
		if hits == 0 || hits == total || cs.Evictions == 0 {
			return fmt.Errorf("mixed-rw: %d of %d Boolean ops hit, %d evictions; want a ratio strictly inside (0,1) and evictions", hits, total, cs.Evictions)
		}
	}
	return nil
}

// quantile reads the q-quantile off sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

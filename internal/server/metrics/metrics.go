// Package metrics is a small expvar-backed metrics registry for the
// ecrpqd query server: counters, gauges, latency histograms, and lazily
// computed snapshot functions, all rendered as a single JSON expvar.
//
// A Registry is self-contained — nothing is registered globally until
// Publish is called — so tests can create as many registries as they
// like, while the daemon publishes one under "ecrpqd" and serves it on
// GET /debug/vars alongside the standard expvar variables (cmdline,
// memstats).
package metrics

import (
	"expvar"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) appendJSON(sb *strings.Builder) {
	fmt.Fprintf(sb, "%d", c.v.Load())
}

// Gauge is an instantaneous signed value (e.g. in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Inc increments the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

func (g *Gauge) appendJSON(sb *strings.Builder) {
	fmt.Fprintf(sb, "%d", g.v.Load())
}

// DefaultLatencyBuckets are the histogram bounds (seconds) used when a
// histogram is created with no explicit buckets: 1ms to 10s, roughly
// logarithmic — the range a query server cares about.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram accumulates duration observations into fixed buckets, with a
// total count and sum for mean/rate computation. Observations above the
// last bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds []float64 // upper bounds in seconds, ascending
	counts []atomic.Uint64
	inf    atomic.Uint64
	count  atomic.Uint64
	sumNs  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs))}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
	for i, b := range h.bounds {
		if s <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.inf.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the containing bucket; observations beyond the last bound report
// the last bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := uint64(0)
	lower := 0.0
	for i, b := range h.bounds {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank && c > 0 {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lower + frac*(b-lower)
		}
		cum += c
		lower = b
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) appendJSON(sb *strings.Builder) {
	count := h.count.Load()
	mean := 0.0
	if count > 0 {
		mean = float64(h.sumNs.Load()) / float64(count) / 1e9
	}
	fmt.Fprintf(sb, `{"count":%d,"sum_seconds":%s,"mean_seconds":%s,"p50":%s,"p95":%s,"p99":%s,"p999":%s,"buckets":{`,
		count,
		jsonFloat(float64(h.sumNs.Load())/1e9),
		jsonFloat(mean),
		jsonFloat(h.Quantile(0.50)),
		jsonFloat(h.Quantile(0.95)),
		jsonFloat(h.Quantile(0.99)),
		jsonFloat(h.Quantile(0.999)))
	for i, b := range h.bounds {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(sb, `"le_%g":%d`, b, h.counts[i].Load())
	}
	fmt.Fprintf(sb, `,"inf":%d},"cumulative":{`, h.inf.Load())
	// Cumulative counts (everything ≤ bound), Prometheus-style: lets a
	// scraper read "N requests under 100ms" without summing buckets
	// non-atomically itself.
	cum := uint64(0)
	for i, b := range h.bounds {
		if i > 0 {
			sb.WriteByte(',')
		}
		cum += h.counts[i].Load()
		fmt.Fprintf(sb, `"le_%g":%d`, b, cum)
	}
	fmt.Fprintf(sb, `,"inf":%d}}`, cum+h.inf.Load())
}

func jsonFloat(f float64) string {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return "0"
	}
	return fmt.Sprintf("%g", f)
}

// jsonVar is anything the registry can render.
type jsonVar interface{ appendJSON(*strings.Builder) }

// funcVar renders a snapshot function's result with fmt %v for numbers
// and strings, or calls its String method — callers return values that
// marshal cleanly (numbers, pre-rendered JSON via RawJSON).
type funcVar func() string

func (f funcVar) appendJSON(sb *strings.Builder) { sb.WriteString(f()) }

// Registry is a named collection of metrics rendered as one JSON object.
// It implements expvar.Var. All methods are safe for concurrent use;
// metric constructors return the existing metric when the name is taken
// (names are per-registry unique).
type Registry struct {
	mu    sync.Mutex
	order []string
	vars  map[string]jsonVar
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]jsonVar)}
}

func (r *Registry) getOrAdd(name string, mk func() jsonVar) jsonVar {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		return v
	}
	v := mk()
	r.vars[name] = v
	r.order = append(r.order, name)
	return v
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	v := r.getOrAdd(name, func() jsonVar { return &Counter{} })
	c, ok := v.(*Counter)
	if !ok {
		return &Counter{} // name collision across kinds: degrade to a detached metric
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	v := r.getOrAdd(name, func() jsonVar { return &Gauge{} })
	g, ok := v.(*Gauge)
	if !ok {
		return &Gauge{}
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with
// the given bucket bounds (seconds) if needed; nil bounds use
// DefaultLatencyBuckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	v := r.getOrAdd(name, func() jsonVar { return newHistogram(bounds) })
	h, ok := v.(*Histogram)
	if !ok {
		return newHistogram(bounds)
	}
	return h
}

// Func registers a snapshot function whose result — which must already be
// valid JSON — is embedded verbatim at render time. Use it for values
// owned elsewhere (e.g. plan-cache statistics).
func (r *Registry) Func(name string, f func() string) {
	r.getOrAdd(name, func() jsonVar { return funcVar(f) })
}

// String renders the registry as a JSON object; it implements expvar.Var.
func (r *Registry) String() string {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	vars := make([]jsonVar, len(names))
	for i, n := range names {
		vars[i] = r.vars[n]
	}
	r.mu.Unlock()
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%q:", n)
		vars[i].appendJSON(&sb)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Publish registers the registry as a global expvar under the given name,
// once; later calls (or a name already taken by someone else) are no-ops,
// so tests that share a process never panic on re-registration.
func (r *Registry) Publish(name string) {
	if expvar.Get(name) == nil {
		expvar.Publish(name, r)
	}
}

package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Inc()
	if c.Value() != 2 {
		t.Fatalf("counter=%d, want 2", c.Value())
	}
	g := r.Gauge("inflight")
	g.Inc()
	g.Inc()
	g.Dec()
	if v := g.v.Load(); v != 1 {
		t.Fatalf("gauge=%d, want 1", v)
	}
}

func TestConstructorsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Error("same name returned distinct counters")
	}
	h1 := r.Histogram("h", nil)
	h2 := r.Histogram("h", []float64{1, 2})
	if h1 != h2 {
		t.Error("same name returned distinct histograms")
	}
	// A name collision across kinds degrades to a detached metric rather
	// than panicking or corrupting the registered one.
	g := r.Gauge("x")
	g.Inc()
	a.Inc()
	if a.Value() != 1 {
		t.Error("registered counter corrupted by cross-kind collision")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
	// 100 observations at ~5ms → all in the first bucket.
	for i := 0; i < 100; i++ {
		h.Observe(5 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count=%d", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0 || p50 > 0.01 {
		t.Errorf("p50=%v, want within the first bucket (0, 0.01]", p50)
	}
	// Push half the mass into the second bucket: p95 must land there.
	for i := 0; i < 100; i++ {
		h.Observe(50 * time.Millisecond)
	}
	p95 := h.Quantile(0.95)
	if p95 <= 0.01 || p95 > 0.1 {
		t.Errorf("p95=%v, want within the second bucket (0.01, 0.1]", p95)
	}
	// Beyond the last bound: reported as the last bound.
	h.Observe(time.Hour)
	if q := h.Quantile(0.9999); q != 1 {
		t.Errorf("overflow quantile=%v, want last bound 1", q)
	}
}

func TestRegistryRendersValidJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").v.Store(3)
	r.Gauge("g").v.Store(-2)
	h := r.Histogram("lat", nil)
	h.Observe(3 * time.Millisecond)
	r.Func("snapshot", func() string { return `{"nested":true}` })
	var out map[string]any
	if err := json.Unmarshal([]byte(r.String()), &out); err != nil {
		t.Fatalf("registry output is not JSON: %v\n%s", err, r.String())
	}
	if out["c"].(float64) != 3 {
		t.Errorf("c=%v", out["c"])
	}
	if out["g"].(float64) != -2 {
		t.Errorf("g=%v", out["g"])
	}
	lat := out["lat"].(map[string]any)
	if lat["count"].(float64) != 1 {
		t.Errorf("lat.count=%v", lat["count"])
	}
	if out["snapshot"].(map[string]any)["nested"] != true {
		t.Errorf("snapshot=%v", out["snapshot"])
	}
}

func TestPublishIdempotent(t *testing.T) {
	r := NewRegistry()
	// Publishing twice (or publishing two registries under one name) must
	// not panic — the expvar global namespace is first-come-first-served.
	r.Publish("metrics_test_publish")
	r.Publish("metrics_test_publish")
	NewRegistry().Publish("metrics_test_publish")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c").Inc()
				r.Histogram("h", nil).Observe(time.Millisecond)
				r.Gauge("g").Inc()
				_ = r.String()
			}
		}()
	}
	wg.Wait()
	if r.Counter("c").Value() != 1600 {
		t.Fatalf("counter=%d, want 1600", r.Counter("c").Value())
	}
}

// TestHistogramJSONShape pins the rendered histogram JSON: field set,
// p999 quantile, and the cumulative bucket counts alongside the
// per-bucket ones.
func TestHistogramJSONShape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.1, 1})
	h.Observe(50 * time.Millisecond)
	h.Observe(500 * time.Millisecond)
	h.Observe(2 * time.Second)

	var rendered map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.String()), &rendered); err != nil {
		t.Fatalf("registry JSON invalid: %v\n%s", err, r.String())
	}
	var hist map[string]json.RawMessage
	if err := json.Unmarshal(rendered["lat"], &hist); err != nil {
		t.Fatalf("histogram JSON invalid: %v\n%s", err, rendered["lat"])
	}
	for _, key := range []string{"count", "sum_seconds", "mean_seconds", "p50", "p95", "p99", "p999", "buckets", "cumulative"} {
		if _, ok := hist[key]; !ok {
			t.Errorf("histogram JSON missing %q: %s", key, rendered["lat"])
		}
	}
	if len(hist) != 9 {
		t.Errorf("histogram JSON has %d keys, want exactly 9: %s", len(hist), rendered["lat"])
	}
	var buckets, cumulative map[string]uint64
	if err := json.Unmarshal(hist["buckets"], &buckets); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(hist["cumulative"], &cumulative); err != nil {
		t.Fatal(err)
	}
	wantBuckets := map[string]uint64{"le_0.1": 1, "le_1": 1, "inf": 1}
	wantCumulative := map[string]uint64{"le_0.1": 1, "le_1": 2, "inf": 3}
	for k, want := range wantBuckets {
		if buckets[k] != want {
			t.Errorf("buckets[%q] = %d, want %d", k, buckets[k], want)
		}
	}
	if len(buckets) != len(wantBuckets) {
		t.Errorf("buckets = %v, want exactly %v", buckets, wantBuckets)
	}
	for k, want := range wantCumulative {
		if cumulative[k] != want {
			t.Errorf("cumulative[%q] = %d, want %d", k, cumulative[k], want)
		}
	}
	var count uint64
	if err := json.Unmarshal(hist["count"], &count); err != nil || count != 3 {
		t.Errorf("count = %s, want 3", hist["count"])
	}
	// p999 of {0.05, 0.5, 2} with bounds {0.1, 1}: beyond the last bound,
	// so the estimator reports the last bound.
	var p999 float64
	if err := json.Unmarshal(hist["p999"], &p999); err != nil || p999 != 1 {
		t.Errorf("p999 = %s, want 1", hist["p999"])
	}
}

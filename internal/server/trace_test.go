package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceRingPopulatedConcurrently fires queries from several goroutines
// and checks that /debug/trace/recent serves well-formed traces with the
// pipeline spans attached. Runs under -race via `make race`.
func TestTraceRingPopulatedConcurrently(t *testing.T) {
	s := newTestServer(t, Config{TraceRingSize: 32})
	registerDB(t, s, "g", "alphabet a b\nu a v\nv b w\n")

	const workers, perWorker = 4, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var buf bytes.Buffer
				json.NewEncoder(&buf).Encode(map[string]any{"db": "g", "query": quickQuery})
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", &buf))
				if rec.Code != http.StatusOK {
					t.Errorf("query: %d %s", rec.Code, rec.Body.String())
				}
			}
		}()
	}
	wg.Wait()

	rec, out := doJSON(t, s, "GET", "/debug/trace/recent", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("recent: %d %s", rec.Code, rec.Body.String())
	}
	if out["enabled"] != true {
		t.Fatalf("enabled=%v, want true", out["enabled"])
	}
	traces, _ := out["traces"].([]any)
	queries := 0
	names := map[string]bool{}
	for _, raw := range traces {
		tr, _ := raw.(map[string]any)
		if tr["name"] == "query" {
			queries++
		}
		spans, _ := tr["spans"].([]any)
		for _, sp := range spans {
			m, _ := sp.(map[string]any)
			if n, ok := m["name"].(string); ok {
				names[n] = true
			}
		}
	}
	if queries != workers*perWorker {
		t.Fatalf("ring holds %d query traces, want %d", queries, workers*perWorker)
	}
	for _, want := range []string{"server/parse", "pool/queue_wait", "plancache/get", "core/prepare"} {
		if !names[want] {
			t.Errorf("no trace contains span %q; saw %v", want, names)
		}
	}
}

// TestTraceChromeEndpoint checks the chrome://tracing export is a valid
// trace_event array covering the ring's traces.
func TestTraceChromeEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", "alphabet a b\nu a v\nv b w\n")
	_, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery})
	if out["sat"] != true {
		t.Fatalf("query failed: %v", out)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/chrome", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("chrome: %d %s", rec.Code, rec.Body.String())
	}
	var events []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("chrome dump is not a JSON event array: %v", err)
	}
	var haveMeta, haveSpan bool
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			haveMeta = true
		case "X":
			haveSpan = true
		}
	}
	if !haveMeta || !haveSpan {
		t.Errorf("chrome dump missing metadata or span events: %s", rec.Body.String())
	}
}

// TestSlowQueryLog sets a threshold every request exceeds and checks the
// structured slow_query line carries the plan snapshot and stage breakdown.
func TestSlowQueryLog(t *testing.T) {
	var logBuf bytes.Buffer
	var mu sync.Mutex
	s := New(Config{
		Logger:             log.New(&syncWriter{w: &logBuf, mu: &mu}, "", 0),
		SlowQueryThreshold: time.Nanosecond,
	})
	registerDB(t, s, "g", "alphabet a b\nu a v\nv b w\n")
	doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery})

	mu.Lock()
	logged := logBuf.String()
	mu.Unlock()
	if !strings.Contains(logged, "event=slow_query") {
		t.Fatalf("no slow_query line in log:\n%s", logged)
	}
	for _, want := range []string{"name=query", "dur_ms=", "plan=", "stages=", `"strategy"`} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow_query line missing %q:\n%s", want, logged)
		}
	}
	// The metric moved too: register and query both crossed the 1ns
	// threshold.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if !strings.Contains(rec.Body.String(), `"slow_queries_total":2`) {
		t.Errorf("slow_queries_total not incremented:\n%s", rec.Body.String())
	}
}

// TestGenericSearchWorkIsVisible: the core/product_search stage carries its
// work counters (decisions made, traversals begun, product states
// expanded) wherever an operator looks for why a generic query was cheap or
// dear: the executed /v1/explain stage table and the slow-query log.
func TestGenericSearchWorkIsVisible(t *testing.T) {
	var logBuf bytes.Buffer
	var mu sync.Mutex
	s := New(Config{
		Logger:             log.New(&syncWriter{w: &logBuf, mu: &mu}, "", 0),
		SlowQueryThreshold: time.Nanosecond,
	})
	registerDB(t, s, "g", denseDBText(10))
	const fan = "alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel eq(p1, p2)\n"
	rec, out := doJSON(t, s, "POST", "/v1/explain",
		map[string]any{"db": "g", "query": fan, "strategy": "generic", "execute": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", rec.Code, rec.Body.String())
	}
	var attrs map[string]any
	stages, _ := out["stages"].([]any)
	for _, st := range stages {
		if row, _ := st.(map[string]any); row["stage"] == "core/product_search" {
			attrs, _ = row["attrs"].(map[string]any)
		}
	}
	// x = y with two empty paths satisfies the fan at the first assignment
	// tried: one traversal, whose start state accepts before any expansion.
	for key, want := range map[string]float64{"product_checks": 1, "node_assignments": 2, "traversals": 1, "states": 0} {
		if n, ok := attrs[key].(float64); !ok || n != want {
			t.Errorf("core/product_search stage attrs[%q] = %v, want %v (stages: %v)", key, attrs[key], want, stages)
		}
	}
	doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": fan, "strategy": "generic"})
	mu.Lock()
	logged := logBuf.String()
	mu.Unlock()
	for _, want := range []string{"event=slow_query name=query", `"core/product_search"`, `"traversals":`, `"states":`} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow_query log missing %s:\n%s", want, logged)
		}
	}
}

// TestJoinWorkIsVisible: the core/cq_join stage of a materialised Reduction
// evaluation carries the join's work counters (bags in the compiled plan,
// relation rows scanned, rows of the largest bag table) in the executed
// /v1/explain stage table, the slow-query log and /debug/trace. The join
// runs where the materialisation is built: an executed explanation builds
// its own, cached query or not, and a /v1/query only on the miss that
// caches it — the hits after it read the decided answer.
func TestJoinWorkIsVisible(t *testing.T) {
	var logBuf bytes.Buffer
	var mu sync.Mutex
	s := New(Config{
		Logger:             log.New(&syncWriter{w: &logBuf, mu: &mu}, "", 0),
		SlowQueryThreshold: time.Nanosecond,
	})
	registerDB(t, s, "g", denseDBText(10))
	// Two pair components chained on x2: two bags, each scanning its R'.
	const chain = "alphabet a b\nx0 -[$p1]-> x1\nx1 -[$p2]-> x2\nx2 -[$p3]-> x3\nx3 -[$p4]-> x4\nrel eqlen(p1, p2)\nrel eqlen(p3, p4)\n"
	explainJoin := func(when string) {
		rec, out := doJSON(t, s, "POST", "/v1/explain",
			map[string]any{"db": "g", "query": chain, "strategy": "reduction", "execute": true})
		if rec.Code != http.StatusOK {
			t.Fatalf("explain %s: %d %s", when, rec.Code, rec.Body.String())
		}
		var attrs map[string]any
		seen := map[string]bool{}
		stages, _ := out["stages"].([]any)
		for _, st := range stages {
			row, _ := st.(map[string]any)
			name, _ := row["stage"].(string)
			seen[name] = true
			if name == "core/cq_join" {
				attrs, _ = row["attrs"].(map[string]any)
			}
		}
		for _, stage := range []string{"core/materialize", "core/cq_join", "core/witness"} {
			if !seen[stage] {
				t.Errorf("explain %s: no %s stage (stages: %v)", when, stage, stages)
			}
		}
		if n, _ := attrs["bags"].(float64); n != 2 {
			t.Errorf("explain %s: core/cq_join stage attrs[bags] = %v, want 2 (stages: %v)", when, attrs["bags"], stages)
		}
		in, _ := attrs["rows_in"].(float64)
		peak, _ := attrs["rows_peak"].(float64)
		if in < 2 || peak < 1 || peak > in {
			t.Errorf("explain %s: core/cq_join stage attrs: rows_in = %v, rows_peak = %v (stages: %v)", when, attrs["rows_in"], attrs["rows_peak"], stages)
		}
	}
	explainJoin("before any query")
	if cs := s.CacheStats(); cs.Entries != 2 {
		t.Fatalf("an executed explanation left %d cache entries, want the text and the plan", cs.Entries)
	}
	ask := func(want string) {
		rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": chain, "strategy": "reduction"})
		if rec.Code != http.StatusOK || out["cache"] != want || out["sat"] != true {
			t.Fatalf("query: %d cache=%v sat=%v, want a satisfiable %s", rec.Code, out["cache"], out["sat"], want)
		}
	}
	ask("partial")
	mu.Lock()
	logged := logBuf.String()
	mu.Unlock()
	for _, want := range []string{"event=slow_query name=query", `"core/cq_join"`, `"bags":2`, `"rows_in":`, `"rows_peak":`, `"core/witness"`} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow_query log missing %s:\n%s", want, logged)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/recent", nil))
	for _, want := range []string{`"core/cq_join"`, `"rows_peak"`} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/debug/trace/recent missing %s:\n%s", want, rec.Body.String())
		}
	}
	ask("hit")
	explainJoin("of a cached query")
	if got := s.mAnswerMemoHits.Value(); got != 1 {
		t.Errorf("memo hits %d, want the one query hit: an executed explanation read the decided answer", got)
	}
}

// TestTraceDisabled turns sampling off entirely: the endpoints must report
// disabled and queries must still work.
func TestTraceDisabled(t *testing.T) {
	s := newTestServer(t, Config{TraceSampleEvery: -1})
	registerDB(t, s, "g", "alphabet a b\nu a v\nv b w\n")
	_, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery})
	if out["sat"] != true {
		t.Fatalf("query with tracing disabled failed: %v", out)
	}
	rec, rout := doJSON(t, s, "GET", "/debug/trace/recent", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("recent: %d", rec.Code)
	}
	if rout["enabled"] != false {
		t.Errorf("enabled=%v, want false", rout["enabled"])
	}
}

// TestTraceSampling at 1-in-3 must trace a third of the requests.
func TestTraceSampling(t *testing.T) {
	s := newTestServer(t, Config{TraceSampleEvery: 3})
	registerDB(t, s, "g", "alphabet a b\nu a v\nv b w\n")
	for i := 0; i < 9; i++ {
		doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery})
	}
	_, out := doJSON(t, s, "GET", "/debug/trace/recent", nil)
	traces, _ := out["traces"].([]any)
	// register is also a traced request, so the count is over 10 requests;
	// exact share depends on interleaving — just require strictly fewer
	// traces than requests and at least one.
	if len(traces) == 0 || len(traces) >= 10 {
		t.Errorf("1-in-3 sampling recorded %d of 10 requests", len(traces))
	}
}

// syncWriter serializes concurrent log writes for test inspection.
type syncWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

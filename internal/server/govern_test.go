package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// doJSONHeaders is doJSON plus request headers (client identity, priority).
func doJSONHeaders(t *testing.T, h http.Handler, method, path string, body any, hdrs map[string]string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	for k, v := range hdrs {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: non-JSON response %q", method, path, rec.Body.String())
		}
	}
	return rec, out
}

// TestMemoryBombBounded is the resource-governor acceptance test: a query
// whose materialization wants far more memory than the budget must come
// back as a structured 429 RESOURCE_EXHAUSTED — not an OOM — while
// concurrent easy queries on the same server keep succeeding, the ledger
// never exceeds the budget, and everything reserved is returned.
func TestMemoryBombBounded(t *testing.T) {
	const budget = 2 << 20
	s := newTestServer(t, Config{
		MemBudgetBytes:    budget,
		QueryReserveBytes: 64 << 10,
		Workers:           4,
	})
	registerDB(t, s, "g", denseDBText(60))

	before := runtime.NumGoroutine()

	var wg sync.WaitGroup
	bombCodes := make([]int, 3)
	for i := range bombCodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, out := doJSON(t, s, "POST", "/v1/query",
				map[string]any{"db": "g", "query": slowQuery, "strategy": "reduction"})
			bombCodes[i] = rec.Code
			if rec.Code == http.StatusTooManyRequests {
				if out["code"] != "RESOURCE_EXHAUSTED" {
					t.Errorf("bomb %d: code=%v, want RESOURCE_EXHAUSTED (%s)", i, out["code"], rec.Body.String())
				}
				if rec.Header().Get("Retry-After") == "" {
					t.Errorf("bomb %d: 429 without Retry-After", i)
				}
			}
		}(i)
	}
	// Easy queries run alongside the bombs; transient denial (the bombs
	// hold the whole budget until they die) is retried briefly.
	easyOK := make([]bool, 4)
	for i := range easyOK {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				rec, out := doJSON(t, s, "POST", "/v1/query",
					map[string]any{"db": "g", "query": quickQuery})
				if rec.Code == http.StatusOK && out["sat"] == true {
					easyOK[i] = true
					return
				}
				if rec.Code != http.StatusTooManyRequests {
					t.Errorf("easy %d: unexpected %d %s", i, rec.Code, rec.Body.String())
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()

	for i, code := range bombCodes {
		if code != http.StatusTooManyRequests {
			t.Errorf("bomb %d: status %d, want 429", i, code)
		}
	}
	for i, ok := range easyOK {
		if !ok {
			t.Errorf("easy query %d never succeeded alongside the bombs", i)
		}
	}

	st := s.GovernStats()
	if st.PeakBytes > budget {
		t.Errorf("ledger peak %d exceeded the %d budget", st.PeakBytes, budget)
	}
	if st.Denials == 0 {
		t.Error("no ledger denials recorded for a memory bomb")
	}
	// Once the requests are gone, only cache-resident bytes may remain.
	cacheBytes := s.CacheStats().Bytes
	deadline := time.Now().Add(2 * time.Second)
	for s.GovernStats().ReservedBytes > cacheBytes && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		cacheBytes = s.CacheStats().Bytes
	}
	if got := s.GovernStats().ReservedBytes; got > cacheBytes {
		t.Errorf("reserved = %d after all requests done, want <= cache bytes %d", got, cacheBytes)
	}

	// No goroutines leaked by denied evaluations.
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+2 {
		t.Errorf("goroutines %d after test, was %d before", now, before)
	}
}

// TestAnswersJoinBounded: the join behind a free-variable /v1/query is
// charged to the request like a Boolean one's. On a 40-cycle each of the
// triangle's three a*-reachability relations keeps 1 600 rows (the sweep
// fits the budget) but their one bag joins into 64 000 (768 KB, which does
// not): the request is refused with the typed 429, and gives everything
// back.
func TestAnswersJoinBounded(t *testing.T) {
	s := newTestServer(t, Config{MemBudgetBytes: 512 << 10, QueryReserveBytes: 64 << 10})
	var db strings.Builder
	db.WriteString("alphabet a b\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&db, "v%d a v%d\n", i, (i+1)%40)
	}
	registerDB(t, s, "ring", db.String())
	rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{
		"db": "ring", "strategy": "reduction",
		"query": "alphabet a b\nfree x\nx -[a*]-> y\ny -[a*]-> z\nx -[a*]-> z\n",
	})
	if rec.Code != http.StatusTooManyRequests || out["code"] != "RESOURCE_EXHAUSTED" {
		t.Fatalf("status=%d code=%v, want 429 RESOURCE_EXHAUSTED (%.200s)", rec.Code, out["code"], rec.Body.String())
	}
	if got, cached := s.GovernStats().ReservedBytes, s.CacheStats().Bytes; got > cached {
		t.Errorf("reserved = %d after the refusal, want at most the cache's %d", got, cached)
	}
}

// TestGenericSearchFitsSmallBudget: the generic strategy's product kernels
// charge tables sized by the states a search meets. The 3-track prefix
// chain on a 40-vertex graph packs into 2^28 keys; when a kernel zeroed a
// bitset over that space before its first state, a daemon with a 1 MiB
// budget answered this request 429 RESOURCE_EXHAUSTED (4.4 MB asked for
// up front), and now answers it with a witness.
func TestGenericSearchFitsSmallBudget(t *testing.T) {
	s := newTestServer(t, Config{MemBudgetBytes: 1 << 20, QueryReserveBytes: 64 << 10})
	var db strings.Builder
	db.WriteString("alphabet a b\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&db, "v%d a v%d\nv%d b v%d\nv%d a v%d\n", i, (i+1)%40, i, (7*i+3)%40, i, (11*i+5)%40)
	}
	registerDB(t, s, "g40", db.String())
	rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{
		"db": "g40", "strategy": "generic",
		"query": "alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nx -[$p3]-> y\nrel prefix(p1, p2)\nrel prefix(p2, p3)\nlang p1 a(a|b)*\n",
	})
	if rec.Code != http.StatusOK || out["sat"] != true || out["paths"] == nil {
		t.Fatalf("status=%d, want 200 with a witness (%.300s)", rec.Code, rec.Body.String())
	}
	if got, cached := s.GovernStats().ReservedBytes, s.CacheStats().Bytes; got > cached {
		t.Errorf("reserved = %d after the request, want at most the cache's %d", got, cached)
	}
}

// TestDegradedFallback pins the satisfiability-only answer: with a budget
// too small to admit any evaluation, a satisfiable query still gets a 200
// marked degraded.
func TestDegradedFallback(t *testing.T) {
	s := newTestServer(t, Config{
		MemBudgetBytes:    32 << 10, // below the 64 KiB admission floor
		QueryReserveBytes: 64 << 10,
		DegradedFallback:  true,
	})
	registerDB(t, s, "g", "alphabet a b\nu a v\n")
	rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded query: %d %s", rec.Code, rec.Body.String())
	}
	if out["degraded"] != true || out["degraded_reason"] != "admission" {
		t.Fatalf("response not marked degraded: %s", rec.Body.String())
	}
	if out["sat"] != true {
		t.Fatalf("satisfiability fallback said sat=%v for a satisfiable query", out["sat"])
	}
	if out["strategy"] != "satisfiability" {
		t.Fatalf("strategy = %v, want satisfiability", out["strategy"])
	}
	if _, ok := out["nodes"]; ok {
		t.Fatal("degraded answer must not carry a db witness")
	}
}

// TestQuotaExceeded pins the per-client token bucket: the same client is
// limited, a different client is not.
func TestQuotaExceeded(t *testing.T) {
	s := newTestServer(t, Config{QuotaRPS: 0.001, QuotaBurst: 2})
	registerDB(t, s, "g", "alphabet a b\nu a v\n")
	req := map[string]any{"db": "g", "query": quickQuery}
	hdrA := map[string]string{"X-Ecrpq-Client": "alice"}
	for i := 0; i < 2; i++ {
		rec, _ := doJSONHeaders(t, s, "POST", "/v1/query", req, hdrA)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d within burst: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	rec, out := doJSONHeaders(t, s, "POST", "/v1/query", req, hdrA)
	if rec.Code != http.StatusTooManyRequests || out["code"] != "QUOTA_EXCEEDED" {
		t.Fatalf("over-burst request: %d code=%v, want 429 QUOTA_EXCEEDED", rec.Code, out["code"])
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("quota 429 must carry Retry-After")
	}
	// A different client identity has its own bucket.
	rec, _ = doJSONHeaders(t, s, "POST", "/v1/query", req, map[string]string{"X-Ecrpq-Client": "bob"})
	if rec.Code != http.StatusOK {
		t.Fatalf("other client: %d %s", rec.Code, rec.Body.String())
	}
}

// TestShedLowPriority pins adaptive shedding on the memory signal: with
// reserved bytes past the fraction threshold, low-priority requests are
// turned away with 429 SHED while normal-priority ones still run.
func TestShedLowPriority(t *testing.T) {
	const budget = 1 << 20
	s := newTestServer(t, Config{
		MemBudgetBytes:    budget,
		QueryReserveBytes: 4 << 10,
		ShedEnabled:       true,
		ShedMemFraction:   0.5,
	})
	registerDB(t, s, "g", "alphabet a b\nu a v\n")
	req := map[string]any{"db": "g", "query": quickQuery}

	// Simulate memory pressure directly on the ledger.
	if !s.broker.TryAcquire(budget * 3 / 4) {
		t.Fatal("pressure acquisition failed")
	}
	defer s.broker.Release(budget * 3 / 4)

	rec, out := doJSONHeaders(t, s, "POST", "/v1/query", req, map[string]string{"X-Ecrpq-Priority": "low"})
	if rec.Code != http.StatusTooManyRequests || out["code"] != "SHED" {
		t.Fatalf("low-priority under pressure: %d code=%v, want 429 SHED", rec.Code, out["code"])
	}
	rec, _ = doJSONHeaders(t, s, "POST", "/v1/query", req, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("normal-priority under pressure: %d %s", rec.Code, rec.Body.String())
	}
}

// TestDroppedExpired pins the deadline-aware dequeue: a job whose client
// deadline passes while it waits behind a busy worker is dropped at
// dequeue (never runs) and counted, and its admission reservation is
// returned.
func TestDroppedExpired(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:           1,
		QueueDepth:        4,
		MemBudgetBytes:    8 << 20,
		QueryReserveBytes: 64 << 10,
	})
	registerDB(t, s, "g", "alphabet a b\nu a v\n")
	baseline := s.GovernStats().ReservedBytes

	// Occupy the only worker.
	release := make(chan struct{})
	blocked := make(chan struct{})
	if !s.pool.trySubmit(func() { close(blocked); <-release }) {
		t.Fatal("could not occupy the worker")
	}
	<-blocked

	// This query queues behind the blocker and times out in the queue.
	rec, _ := doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "g", "query": quickQuery, "timeout_ms": 50})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline query: %d %s", rec.Code, rec.Body.String())
	}

	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for s.mDroppedExpired.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.mDroppedExpired.Value(); got != 1 {
		t.Fatalf("dropped_expired = %d, want 1", got)
	}
	// The dropped job's reservation came back. Nothing ran, so the cache
	// holds no plan; what it does hold is the text entry the request-text
	// memo stored when the request was parsed, charged to the same ledger.
	if st := s.CacheStats(); st.Entries != 1 {
		t.Fatalf("cache entries = %d after drop, want 1 (the text entry)", st.Entries)
	}
	want := baseline + s.CacheStats().Bytes
	for s.GovernStats().ReservedBytes > want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.GovernStats().ReservedBytes; got != want {
		t.Fatalf("reserved = %d after drop, want baseline %d + the text entry's %d", got, baseline, want-baseline)
	}
}

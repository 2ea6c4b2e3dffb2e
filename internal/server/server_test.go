package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ecrpq/internal/core"
	"ecrpq/internal/invariant"
	"ecrpq/internal/query"
)

// denseDBText renders a dense deterministic database in the graphdb text
// format: n vertices, one a- and one b-edge out of each. At n=60 a 2-track
// equality query takes ~1s to materialize — the knob the timeout and
// shutdown tests turn.
func denseDBText(n int) string {
	var sb strings.Builder
	sb.WriteString("alphabet a b\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "v%d a v%d\n", i, (i*7+1)%n)
		fmt.Fprintf(&sb, "v%d b v%d\n", i, (i*7+2)%n)
	}
	return sb.String()
}

// slowQuery is a single 2-track equality component: on a dense database
// its Lemma 4.3 materialization sweeps all n² source pairs.
const slowQuery = "alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel eq(p1, p2)\n"

// quickQuery is a plain one-edge reachability query.
const quickQuery = "alphabet a b\nx -[ab]-> y\n"

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	return New(cfg)
}

func doJSON(t testing.TB, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case nil:
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(b); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
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

func registerDB(t testing.TB, s *Server, name, text string) {
	t.Helper()
	rec, _ := doJSON(t, s, "POST", "/v1/dbs/"+name, text)
	if rec.Code != http.StatusOK {
		t.Fatalf("register %s: %d %s", name, rec.Code, rec.Body.String())
	}
}

func TestRegisterAndQuery(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", "alphabet a b\nu a v\nv b w\n")
	rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}
	if out["sat"] != true {
		t.Fatalf("sat=%v, want true", out["sat"])
	}
	nodes, _ := out["nodes"].(map[string]any)
	if nodes["x"] != "u" || nodes["y"] != "w" {
		t.Errorf("witness nodes %v, want x=u y=w", nodes)
	}
}

func TestQueryMissThenHit(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(20))
	req := map[string]any{"db": "g", "query": slowQuery, "strategy": "reduction"}

	rec, cold := doJSON(t, s, "POST", "/v1/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold query: %d %s", rec.Code, rec.Body.String())
	}
	if cold["cache"] != "miss" {
		t.Fatalf("first query cache=%v, want miss", cold["cache"])
	}
	st := s.CacheStats()
	if st.Entries != 3 { // text entry (request-text memo) + compiled plan + materialization
		t.Fatalf("entries=%d after cold query, want 3", st.Entries)
	}

	rec, warm := doJSON(t, s, "POST", "/v1/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm query: %d %s", rec.Code, rec.Body.String())
	}
	if warm["cache"] != "hit" {
		t.Fatalf("second query cache=%v, want hit", warm["cache"])
	}
	if got := s.CacheStats().Hits - st.Hits; got != 3 { // text entry + plan + materialization lookups
		t.Errorf("cache hits grew by %d, want 3", got)
	}
	if warm["sat"] != cold["sat"] {
		t.Errorf("warm sat=%v differs from cold sat=%v", warm["sat"], cold["sat"])
	}
	if s.Metrics() == nil {
		t.Error("metrics registry missing")
	}
}

// TestWarmLatencyLower is the latency half of the plan-cache acceptance:
// the cached materialization must make the second identical query strictly
// faster than the first on an instance where materialization dominates.
func TestWarmLatencyLower(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(40))
	req := map[string]any{"db": "g", "query": slowQuery, "strategy": "reduction"}
	_, cold := doJSON(t, s, "POST", "/v1/query", req)
	_, warm := doJSON(t, s, "POST", "/v1/query", req)
	coldMs, _ := cold["elapsed_ms"].(float64)
	warmMs, _ := warm["elapsed_ms"].(float64)
	if coldMs <= 0 {
		t.Fatalf("cold elapsed_ms=%v", cold["elapsed_ms"])
	}
	if warmMs >= coldMs {
		t.Errorf("warm query (%vms) not faster than cold (%vms)", warmMs, coldMs)
	}
}

func TestMalformedQuery400(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", "alphabet a b\nu a v\n")
	rec, out := doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "g", "query": "alphabet a b\nthis is not a clause\n"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("code=%d, want 400", rec.Code)
	}
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, "line 2") {
		t.Errorf("error %q does not carry the parser position", msg)
	}
}

func TestQueryErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", "alphabet a b\nu a v\n")
	cases := []struct {
		name string
		body any
		code int
	}{
		{"unknown db", map[string]any{"db": "nope", "query": quickQuery}, http.StatusNotFound},
		{"bad strategy", map[string]any{"db": "g", "query": quickQuery, "strategy": "psychic"}, http.StatusBadRequest},
		{"bad json", "{not json", http.StatusBadRequest},
		{"alphabet mismatch", map[string]any{"db": "g", "query": "alphabet a b c\nx -[ab]-> y\n"}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		rec, _ := doJSON(t, s, "POST", "/v1/query", c.body)
		if rec.Code != c.code {
			t.Errorf("%s: code=%d, want %d (%s)", c.name, rec.Code, c.code, rec.Body.String())
		}
	}
}

// TestFreeVariableAnswers: an answer-set query goes through the plan cache
// like a Boolean one — miss, then hit on the identical body, then partial
// once the database is re-registered (the plan is kept, the materialisation
// rebuilt) — and reports the strategy that ran, not the one asked for.
func TestFreeVariableAnswers(t *testing.T) {
	s := newTestServer(t, Config{})
	const dbText = "alphabet a b\nu a v\nu a w\n"
	registerDB(t, s, "g", dbText)
	const q = "alphabet a b\nfree y\nx -[a]-> y\n"
	req := map[string]any{"db": "g", "query": q, "strategy": "reduction"}
	for i, wantCache := range []string{"miss", "hit", "partial"} {
		if wantCache == "partial" {
			registerDB(t, s, "g", dbText)
		}
		hits := s.CacheStats().Hits
		rec, out := doJSON(t, s, "POST", "/v1/query", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if answers, _ := out["answers"].([]any); len(answers) != 2 {
			t.Fatalf("query %d: answers=%v, want 2 tuples", i, out["answers"])
		}
		if out["cache"] != wantCache {
			t.Errorf("query %d: cache=%v, want %s", i, out["cache"], wantCache)
		}
		if wantCache == "hit" && s.CacheStats().Hits <= hits {
			t.Errorf("query %d: plan-cache hits stayed at %d", i, hits)
		}
	}
	_, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": q})
	if got := out["strategy"]; got != "generic" && got != "reduction" {
		t.Errorf("strategy=%v under auto, want the strategy that ran", got)
	}
}

// TestTimeout504 is the deadline acceptance: a 50ms-timeout query against
// an instance that needs ~1s must come back 504 within twice the deadline.
func TestTimeout504(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(60))
	start := time.Now()
	rec, _ := doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "g", "query": slowQuery, "strategy": "reduction", "timeout_ms": 50})
	elapsed := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("code=%d after %v, want 504 (%s)", rec.Code, elapsed, rec.Body.String())
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("504 took %v, want within 2× the 50ms deadline", elapsed)
	}
}

// TestTimedOutAnswersFreeWorker: a free-variable query reads its answers off
// the reduced join — 32 768 of them here, from a bag table of as many rows.
// That no longer takes the seconds a wall-clock deadline could land in (it
// tried each candidate tuple against the whole table), so as for the Boolean
// hit below the deadline is made to expire at every poll in turn: the
// worker's evaluation returns the context's error at that poll, and polls
// often enough to show that the walk and the rows it keeps watch the
// deadline. Then the one worker serves the next request.
func TestTimedOutAnswersFreeWorker(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheBudgetBytes: 1 << 30}) // the ~60 MB materialisation must be a hit
	registerDB(t, s, "g", denseDBText(32))
	const answers = "alphabet a b\nfree x y z\nx -[$p1]-> y\ny -[$p2]-> z\nrel eqlen(p1, p2)\n"
	rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": answers, "strategy": "reduction"})
	if rec.Code != http.StatusOK || out["cache"] != "miss" {
		t.Fatalf("code=%d cache=%v, want a 200 miss", rec.Code, out["cache"])
	}
	rows, _ := out["answers"].([]any)
	q, err := query.ParseString(answers)
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := s.dbs.get("g")
	polls := 0
	for ; ; polls++ {
		resp, err := s.evaluate(&pollLimitCtx{Context: context.Background(), left: polls},
			&readCall{entry: entry, q: q, hash: query.Hash(q), strat: core.Reduction, stratName: "reduction"})
		if err == nil {
			if resp.Cache != "hit" || len(resp.Answers) != len(rows) {
				t.Fatalf("completed evaluation: cache=%q, %d answers, want a hit with %d", resp.Cache, len(resp.Answers), len(rows))
			}
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline at poll %d: err = %v, want context.DeadlineExceeded", polls, err)
		}
	}
	if want := 2 * len(rows) / 4096; len(rows) != 32768 || polls < want {
		t.Errorf("%d answers polled the context %d times, want 32768 and at least %d: the answer walk does not watch its deadline", len(rows), polls, want)
	}
	rec, _ = doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "g", "query": quickQuery, "timeout_ms": 5000})
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up query: code=%d, want 200: the timed-out query still holds the worker (%s)", rec.Code, rec.Body.String())
	}
}

// pollLimitCtx reports context.DeadlineExceeded from its (left+1)-th Err
// poll on: a deadline that expires at a chosen point of an evaluation.
type pollLimitCtx struct {
	context.Context
	left int
}

func (c *pollLimitCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestTimedOutBooleanHitFreesWorker is TestTimedOutAnswersFreeWorker for a
// Boolean query served from a cached materialisation, where the work is the
// Prop 2.3 join over 160 000 rows. A hit runs too briefly for a wall-clock
// deadline to land inside it reliably, so the deadline is made to expire at
// every poll in turn: the worker's evaluation returns the context's error
// at that poll — the join stops within 4096 rows of its deadline instead of
// holding the worker to the end — and polls often enough to show the join
// itself is watching. Then the one worker serves the next request.
func TestTimedOutBooleanHitFreesWorker(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	registerDB(t, s, "g", denseDBText(20))
	const pair = "alphabet a b\nx -[$p1]-> y\nz -[$p2]-> w\nrel eqlen(p1, p2)\n"
	var rows float64
	for _, want := range []string{"miss", "hit"} {
		rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": pair, "strategy": "reduction"})
		if rec.Code != http.StatusOK || out["cache"] != want {
			t.Fatalf("code=%d cache=%v, want a 200 %s (%s)", rec.Code, out["cache"], want, rec.Body.String())
		}
		stats, _ := out["stats"].(map[string]any)
		rows, _ = stats["CQTuples"].(float64)
	}
	q, err := query.ParseString(pair)
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := s.dbs.get("g")
	polls := 0
	for ; ; polls++ {
		resp, err := s.evaluate(&pollLimitCtx{Context: context.Background(), left: polls},
			&readCall{entry: entry, q: q, hash: query.Hash(q), strat: core.Reduction, stratName: "reduction"})
		if err == nil {
			if resp.Cache != "hit" || !resp.Sat {
				t.Fatalf("completed evaluation: cache=%q sat=%v", resp.Cache, resp.Sat)
			}
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline at poll %d: err = %v, want context.DeadlineExceeded", polls, err)
		}
	}
	if want := int(rows) / 4096; polls < want {
		t.Errorf("a hit over %v rows polled its context %d times, want at least %d: the join does not watch its deadline", rows, polls, want)
	}
	rec, _ := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery, "timeout_ms": 5000})
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up query: code=%d, want 200 (%s)", rec.Code, rec.Body.String())
	}
}

func TestConcurrentQueries(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	registerDB(t, s, "g", denseDBText(12))
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := quickQuery
			if i%2 == 0 {
				q = slowQuery
			}
			rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": q})
			if rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("worker %d: %d %s", i, rec.Code, rec.Body.String())
				return
			}
			if out["sat"] != true {
				errs <- fmt.Sprintf("worker %d: sat=%v", i, out["sat"])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if st := s.CacheStats(); st.Hits == 0 {
		t.Error("no cache hits across 32 identical-query requests")
	}
}

// TestAdmissionControl saturates a 1-worker, 0-depth pool and checks the
// overflow request is turned away with 429.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	registerDB(t, s, "g", denseDBText(60))
	release := make(chan struct{})
	blocked := make(chan struct{})
	// With a rendezvous queue the submit only lands once the worker
	// goroutine is parked on the channel; retry until it is.
	occupied := false
	for i := 0; i < 1000 && !occupied; i++ {
		occupied = s.pool.trySubmit(func() { close(blocked); <-release })
		if !occupied {
			time.Sleep(time.Millisecond)
		}
	}
	if !occupied {
		t.Fatal("could not occupy the only worker")
	}
	<-blocked
	rec, _ := doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "g", "query": quickQuery, "timeout_ms": 1000})
	close(release)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("code=%d with a saturated pool, want 429 (%s)", rec.Code, rec.Body.String())
	}
}

// TestGracefulShutdown starts a query, begins draining while it is in
// flight, and checks (a) new work is refused with 503, (b) the in-flight
// query still completes with 200, (c) Shutdown returns only after it has.
func TestGracefulShutdown(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	registerDB(t, s, "g", denseDBText(30))

	type result struct {
		code int
		body string
	}
	inFlight := make(chan result, 1)
	go func() {
		rec, _ := doJSON(t, s, "POST", "/v1/query",
			map[string]any{"db": "g", "query": slowQuery, "strategy": "reduction", "timeout_ms": 10000})
		inFlight <- result{rec.Code, rec.Body.String()}
	}()
	for s.inflight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	rec, _ := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("query during drain: code=%d, want 503", rec.Code)
	}
	// Liveness stays up through the drain (the process is healthy, just
	// not ready); readiness flips to 503 so routers stop sending work.
	if rec, body := doJSON(t, s, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz during drain: code=%d, want 200", rec.Code)
	} else if body["status"] != "draining" {
		t.Errorf("healthz status during drain: %v, want draining", body["status"])
	}
	if rec, _ := doJSON(t, s, "GET", "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: code=%d, want 503", rec.Code)
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case r := <-inFlight:
		if r.code != http.StatusOK {
			t.Errorf("in-flight query finished %d (%s), want 200", r.code, r.body)
		}
	case <-time.After(time.Second):
		// The handler returns (and the drain sees it) a scheduling step
		// before the goroutine above can hand the response over.
		t.Error("Shutdown returned before the in-flight request finished")
	}
}

// TestLivenessReadinessSplit pins the probe contract both endpoints
// serve: /healthz answers 200 for as long as the process is up (liveness
// — "don't restart me"), /readyz flips to 503 the moment draining starts
// (readiness — "don't route to me"). An orchestrator that can't tell
// these apart would kill -9 a graceful shutdown.
func TestLivenessReadinessSplit(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec, body := doJSON(t, s, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz up: code=%d, want 200", rec.Code)
	} else if body["status"] != "ok" {
		t.Errorf("healthz up: status=%v, want ok", body["status"])
	}
	if rec, body := doJSON(t, s, "GET", "/readyz", nil); rec.Code != http.StatusOK {
		t.Errorf("readyz up: code=%d, want 200", rec.Code)
	} else if body["status"] != "ok" {
		t.Errorf("readyz up: status=%v, want ok", body["status"])
	}

	s.draining.Store(true)
	rec, body := doJSON(t, s, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Errorf("healthz draining: code=%d, want 200 (liveness must not fail during drain)", rec.Code)
	}
	if body["status"] != "draining" {
		t.Errorf("healthz draining: status=%v, want draining", body["status"])
	}
	rec, body = doJSON(t, s, "GET", "/readyz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz draining: code=%d, want 503", rec.Code)
	}
	if body["status"] != "draining" {
		t.Errorf("readyz draining: status=%v, want draining", body["status"])
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("readyz draining: no Retry-After header")
	}
}

func TestRegisterReplaceInvalidatesCache(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(12))
	req := map[string]any{"db": "g", "query": slowQuery, "strategy": "reduction"}
	doJSON(t, s, "POST", "/v1/query", req)
	if st := s.CacheStats(); st.Entries != 3 { // text entry + plan + materialization
		t.Fatalf("entries=%d, want 3", st.Entries)
	}
	// Replacing the database must drop its materialization but keep the
	// db-independent compiled plan and the text entry of the request-text
	// memo, which depends on the query text alone.
	registerDB(t, s, "g", denseDBText(14))
	if st := s.CacheStats(); st.Entries != 2 {
		t.Fatalf("entries=%d after replace, want 2 (text entry + compiled plan)", st.Entries)
	}
	rec, out := doJSON(t, s, "POST", "/v1/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query after replace: %d", rec.Code)
	}
	if out["cache"] != "partial" {
		t.Errorf("cache=%v after replace, want partial (plan hit, materialization rebuilt)", out["cache"])
	}
}

// TestAutoSharesResolvedPlan checks that plan-cache keys are normalized
// to the resolved strategy: the same query requested via "auto" and via
// the strategy auto resolves to must share one compiled plan and one
// materialization instead of caching duplicates.
func TestAutoSharesResolvedPlan(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(12))
	auto := map[string]any{"db": "g", "query": slowQuery, "strategy": "auto"}

	// Ask the planner what auto resolves to on this database, then pin the
	// explicit spelling to the same strategy. This also warms the decision
	// memo ({hash, "auto", gen}); with the text entry of the request-text
	// memo ({text, "text", 0}) that makes two cache entries after explain.
	// Every request below sends the same text, so that entry is shared too.
	rec, exp := doJSON(t, s, "POST", "/v1/explain", map[string]any{"db": "g", "query": slowQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", rec.Code, rec.Body.String())
	}
	resolved, _ := exp["strategy"].(string)
	if resolved != "generic" && resolved != "reduction" {
		t.Fatalf("explain strategy = %v, want generic or reduction", exp["strategy"])
	}
	const memos = 2 // text entry + auto decision memo
	if st := s.CacheStats(); st.Entries != memos {
		t.Fatalf("entries=%d after explain, want %d (text entry + auto decision memo)", st.Entries, memos)
	}
	// The plan is keyed by the resolved strategy; Reduction additionally
	// caches a per-generation materialization.
	planEntries := 1
	if resolved == "reduction" {
		planEntries = 2
	}
	explicit := map[string]any{"db": "g", "query": slowQuery, "strategy": resolved}

	doJSON(t, s, "POST", "/v1/query", explicit)
	if st := s.CacheStats(); st.Entries != memos+planEntries {
		t.Fatalf("entries=%d after explicit query, want %d (the two memos + plan artifacts)",
			st.Entries, memos+planEntries)
	}
	// The auto request must reuse the explicit request's plan (and
	// materialization) rather than store duplicates under another key.
	doJSON(t, s, "POST", "/v1/query", auto)
	if st := s.CacheStats(); st.Entries != memos+planEntries {
		t.Fatalf("entries=%d after auto query, want %d still (everything shared)",
			st.Entries, memos+planEntries)
	}
	rec, out := doJSON(t, s, "POST", "/v1/query", auto)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm auto query: %d %s", rec.Code, rec.Body.String())
	}
	if out["cache"] != "hit" {
		t.Errorf("warm auto query cache=%v, want hit", out["cache"])
	}
	if out["strategy"] != resolved {
		t.Errorf("warm auto query strategy=%v, want %s", out["strategy"], resolved)
	}
	// And the explicit spelling stays warm too — same underlying entries.
	if _, out := doJSON(t, s, "POST", "/v1/query", explicit); out["cache"] != "hit" {
		t.Errorf("explicit query after auto cache=%v, want hit", out["cache"])
	}
	if st := s.CacheStats(); st.Entries != memos+planEntries {
		t.Errorf("entries=%d after warm queries, want %d still", st.Entries, memos+planEntries)
	}
}

// TestBodyTooLarge413 checks that oversized request bodies are refused
// with 413 instead of being silently truncated (a truncated database
// could parse successfully as a smaller, wrong graph).
func TestBodyTooLarge413(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", "alphabet a\nu a v\n")
	huge := bytes.NewReader(make([]byte, maxBodyBytes+1))

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/dbs/big", huge))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized register: code=%d, want 413", rec.Code)
	}

	// The query body must be a valid JSON prefix so the decoder reads all
	// the way to the byte cap instead of failing on a syntax error first.
	var qbuf bytes.Buffer
	qbuf.WriteString(`{"db":"g","query":"`)
	qbuf.Write(bytes.Repeat([]byte{'a'}, maxBodyBytes))
	qbuf.WriteString(`"}`)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", &qbuf))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized query: code=%d, want 413", rec.Code)
	}

	huge.Seek(0, io.SeekStart)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/measures", huge))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized measures: code=%d, want 413", rec.Code)
	}
}

// TestDebugVarsPublishedName checks that /debug/vars does not render this
// server's registry twice when it is published under a name other than
// "ecrpqd" (the skip is by identity, not by name).
func TestDebugVarsPublishedName(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Metrics().Publish("ecrpqd_test_alt_name")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	body := rec.Body.String()
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if n := strings.Count(body, `"plan_cache"`); n != 1 {
		t.Errorf("registry rendered %d times, want exactly once\n%s", n, body)
	}
}

func TestDropAndList(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g1", "alphabet a\nu a v\n")
	registerDB(t, s, "g2", "alphabet a\nu a v\n")
	rec, out := doJSON(t, s, "GET", "/v1/dbs", nil)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	if dbs, _ := out["databases"].([]any); len(dbs) != 2 {
		t.Fatalf("databases=%v, want 2", out["databases"])
	}
	if rec, _ := doJSON(t, s, "DELETE", "/v1/dbs/g1", nil); rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	if rec, _ := doJSON(t, s, "DELETE", "/v1/dbs/g1", nil); rec.Code != http.StatusNotFound {
		t.Errorf("double drop: code=%d, want 404", rec.Code)
	}
}

func TestMeasuresEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, out := doJSON(t, s, "POST", "/v1/measures", map[string]any{"query": slowQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("measures: %d %s", rec.Code, rec.Body.String())
	}
	if out["cc_vertex"].(float64) != 2 {
		t.Errorf("cc_vertex=%v, want 2 for the 2-track equality query", out["cc_vertex"])
	}
	if out["query_hash"] == "" {
		t.Error("missing query_hash")
	}
	if rec, _ := doJSON(t, s, "POST", "/v1/measures", map[string]any{"query": "junk"}); rec.Code != http.StatusBadRequest {
		t.Errorf("bad query: code=%d, want 400", rec.Code)
	}
}

func TestDebugVars(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", "alphabet a\nu a v\n")
	doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": "alphabet a\nx -[a]-> y\n"})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, rec.Body.String())
	}
	ecrpqd, _ := vars["ecrpqd"].(map[string]any)
	if ecrpqd["queries_total"].(float64) != 1 {
		t.Errorf("queries_total=%v, want 1", ecrpqd["queries_total"])
	}
	if _, ok := ecrpqd["plan_cache"].(map[string]any); !ok {
		t.Errorf("plan_cache snapshot missing: %v", ecrpqd["plan_cache"])
	}
}

// TestInvariantViolationBecomes500 checks the recovery middleware: an
// invariant violation inside a handler is converted to a 500 without
// killing the server, and the panic counter increments.
func TestInvariantViolationBecomes500(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.wrap(func(w http.ResponseWriter, r *http.Request) {
		invariant.Assertf(false, "test violation %d", 42)
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code=%d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "test violation 42") {
		t.Errorf("body %q does not name the violation", rec.Body.String())
	}
	if s.mPanics.Value() != 1 {
		t.Errorf("panics_recovered=%d, want 1", s.mPanics.Value())
	}
	// A second request must still be served: the daemon survived.
	if rec, _ := doJSON(t, s, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz after violation: %d", rec.Code)
	}
}

// TestForeignPanicReRaised checks that non-invariant panics are NOT
// swallowed by the middleware.
func TestForeignPanicReRaised(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.wrap(func(w http.ResponseWriter, r *http.Request) {
		panic("not an invariant violation")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic was swallowed")
		}
	}()
	h(httptest.NewRecorder(), httptest.NewRequest("GET", "/boom", nil))
}

// BenchmarkQueryColdVsWarm quantifies the plan cache: b.Run("cold") evicts
// between iterations, b.Run("warm") reuses the cached plan and
// materialization (EXPERIMENTS.md records representative numbers).
func BenchmarkQueryColdVsWarm(b *testing.B) {
	mk := func() *Server {
		s := New(Config{Logger: log.New(io.Discard, "", 0)})
		req := httptest.NewRequest("POST", "/v1/dbs/g", strings.NewReader(denseDBText(30)))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("register: %d", rec.Code)
		}
		return s
	}
	body := func() *strings.Reader {
		return strings.NewReader(`{"db":"g","query":"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel eq(p1, p2)\n","strategy":"reduction"}`)
	}
	run := func(b *testing.B, s *Server, evict bool) {
		for i := 0; i < b.N; i++ {
			if evict {
				st := s.CacheStats()
				_ = st
				s.cache.InvalidateGeneration(1) // drop the materialization
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", body()))
			if rec.Code != http.StatusOK {
				b.Fatalf("query: %d %s", rec.Code, rec.Body.String())
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		s := mk()
		b.ResetTimer()
		run(b, s, true)
	})
	b.Run("warm", func(b *testing.B) {
		s := mk()
		// Prime the cache once.
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", body()))
		b.ResetTimer()
		run(b, s, false)
	})
}

// TestRegisterWarmsLayout: the registry's install builds the database's forward
// layout, so no request does. Builds are counted from outside: asking an
// installed database for its layout allocates nothing (on a bare registry,
// where no other goroutine allocates), and requests leave the same layout
// behind.
func TestRegisterWarmsLayout(t *testing.T) {
	db := mustParseDB(t, denseDBText(8))
	newDBRegistry(func(uint64) int { return 0 }).install(&dbEntry{name: "g", db: db, gen: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db.Forward()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("the first Forward after install allocates %d times: install did not build the layout", n)
	}

	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(8))
	e, ok := s.dbs.get("g")
	if !ok {
		t.Fatal("registered database not found")
	}
	layout := e.db.Forward()
	for _, req := range []map[string]any{
		{"db": "g", "query": slowQuery, "strategy": "reduction"}, // miss: sweep
		{"db": "g", "query": slowQuery, "strategy": "reduction"}, // hit: witness recovery only
		{"db": "g", "query": slowQuery, "strategy": "generic"},
	} {
		if rec, _ := doJSON(t, s, "POST", "/v1/query", req); rec.Code != http.StatusOK {
			t.Fatalf("query %v: %d %s", req, rec.Code, rec.Body.String())
		}
	}
	if e.db.Forward() != layout {
		t.Fatal("a request rebuilt the registered database's layout")
	}
}

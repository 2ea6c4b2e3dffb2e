//go:build faultinject

package server

import (
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ecrpq/internal/faultinject"
	"ecrpq/internal/persist"
)

// chaosAllowedStatus is the contract under fault injection: every injected
// fault must surface as one of the daemon's typed errors — never a hung
// request, a non-JSON body, or a crashed process.
func chaosAllowedStatus(code int) bool {
	switch code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
		http.StatusUnprocessableEntity, http.StatusTooManyRequests,
		statusClientClosedRequest, http.StatusInternalServerError,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// TestChaosMixedWorkload drives a concurrent register/query/drop workload
// with a 10% fault rate at every injection site and asserts the three
// robustness invariants: typed errors only, no goroutine leaks, and a
// data directory that reopens cleanly afterwards.
func TestChaosMixedWorkload(t *testing.T) {
	dir := t.TempDir()
	st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 8})
	if _, err := s.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	faultinject.Enable(42, 0.10)
	defer faultinject.Disable()

	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	var mu sync.Mutex
	statusSeen := make(map[int]int)
	record := func(code int) {
		mu.Lock()
		statusSeen[code]++
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("db%d", w%3)
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0:
					rec, _ := doJSON(t, s, "POST", "/v1/dbs/"+name, denseDBText(6))
					record(rec.Code)
				case 1, 2, 3:
					rec, _ := doJSON(t, s, "POST", "/v1/query",
						map[string]any{"db": name, "query": quickQuery, "timeout_ms": 2000})
					record(rec.Code)
				case 4:
					rec, _ := doJSON(t, s, "DELETE", "/v1/dbs/"+name, nil)
					record(rec.Code)
				}
			}
		}(w)
	}
	wg.Wait()

	for code, n := range statusSeen {
		if !chaosAllowedStatus(code) {
			t.Errorf("workload produced %d responses with unexpected status %d", n, code)
		}
	}
	if statusSeen[http.StatusOK] == 0 {
		t.Error("nothing succeeded under a 10%% fault rate — the rate gate is likely broken")
	}
	stats := faultinject.Stats()
	injected := uint64(0)
	for _, st := range stats {
		injected += st.Injected
	}
	if injected == 0 {
		t.Error("no faults were injected — the chaos run tested nothing")
	}

	// The process must heal completely once injection stops.
	faultinject.Disable()
	rec, _ := doJSON(t, s, "POST", "/v1/dbs/final", denseDBText(6))
	if rec.Code != http.StatusOK {
		t.Fatalf("register after Disable: %d %s", rec.Code, rec.Body.String())
	}
	rec, body := doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "final", "query": quickQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("query after Disable: %d %s", rec.Code, rec.Body.String())
	}
	if sat, _ := body["sat"].(bool); !sat {
		t.Error("post-chaos query returned sat=false on a satisfiable query")
	}

	// No goroutine leaks: every request goroutine and pool job must have
	// wound down (polled, because the last worker may still be exiting).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The data directory must reopen cleanly: whatever subset of the
	// workload became durable, every surviving snapshot decodes and the
	// entries are usable. (Memory ⊆ disk, so the reopened set may contain
	// registrations the workload saw fail on a post-write sync fault —
	// that direction never loses acknowledged data.)
	if err := st.Close(); err != nil {
		t.Fatalf("closing chaos store: %v", err)
	}
	st2, err := persist.Open(dir)
	if err != nil {
		t.Fatalf("reopening after chaos: %v", err)
	}
	defer st2.Close()
	s2 := newTestServer(t, Config{})
	n, err := s2.AttachStore(st2)
	if err != nil {
		t.Fatalf("attaching reopened store: %v", err)
	}
	for _, e := range st2.Entries() {
		rec, _ := doJSON(t, s2, "POST", "/v1/query",
			map[string]any{"db": e.Name, "query": quickQuery})
		if rec.Code != http.StatusOK {
			t.Errorf("restored db %q does not answer: %d", e.Name, rec.Code)
		}
	}
	t.Logf("chaos: %d injected faults across %d sites, statuses %v, %d dbs survived",
		injected, len(stats), statusSeen, n)
}

// TestChaosPanicOnPoolWorker forces the panic mode at the core budget
// site: the injected invariant violation fires on a pool worker goroutine,
// which must recover it into a 500 instead of killing the process.
func TestChaosPanicOnPoolWorker(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	registerDB(t, s, "g", denseDBText(6))

	faultinject.EnableSite("core.budget", faultinject.ModePanic, 1.0)
	defer faultinject.Disable()

	rec, body := doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "g", "query": quickQuery})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("injected panic returned %d, want 500 (body %v)", rec.Code, body)
	}
	if msg, _ := body["error"].(string); msg == "" {
		t.Error("500 from injected panic carries no error message")
	}

	// The worker survived the recover; the server keeps serving.
	faultinject.Disable()
	rec, _ = doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "g", "query": quickQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("query after recovered panic: %d", rec.Code)
	}
}

// TestChaosGovernReserveDenial injects a denial at the govern.reserve
// site — the reservation's grow-more path — so a query that was admitted
// fine is refused memory mid-evaluation. The contract: a structured 429
// RESOURCE_EXHAUSTED (never a hang or a 500), the reservation fully
// returned to the broker, no leaked goroutines, and a server that serves
// the same query once injection stops.
func TestChaosGovernReserveDenial(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:           2,
		MemBudgetBytes:    64 << 20, // roomy: only the injected fault denies
		QueryReserveBytes: 1 << 10,  // tiny admission grant forces a Grow
	})
	registerDB(t, s, "g", denseDBText(12))
	baseline := runtime.NumGoroutine()

	faultinject.EnableSite("govern.reserve", faultinject.ModeError, 1.0)
	defer faultinject.Disable()

	rec, body := doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "g", "query": slowQuery, "strategy": "reduction"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("mid-evaluation denial returned %d, want 429 (body %v)", rec.Code, body)
	}
	if body["code"] != "RESOURCE_EXHAUSTED" {
		t.Fatalf("code = %v, want RESOURCE_EXHAUSTED", body["code"])
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("mid-evaluation 429 carries no Retry-After")
	}

	// The denied query's reservation must unwind completely: only bytes
	// the plan cache holds through its ledger may stay reserved.
	deadline := time.Now().Add(2 * time.Second)
	for s.GovernStats().ReservedBytes > s.CacheStats().Bytes && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got, cached := s.GovernStats().ReservedBytes, s.CacheStats().Bytes; got > cached {
		t.Errorf("reserved = %d after denied query, want <= cache bytes %d", got, cached)
	}

	// Healing: with injection off, the very same query evaluates.
	faultinject.Disable()
	rec, body = doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "g", "query": slowQuery, "strategy": "reduction"})
	if rec.Code != http.StatusOK {
		t.Fatalf("query after Disable: %d %v", rec.Code, body)
	}

	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline+2 {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked after denial: %d > baseline %d\n%s", g, baseline, buf[:n])
	}
}

// TestChaosDelayMode exercises the delay mode end to end: injected latency
// must slow requests down, not fail them.
func TestChaosDelayMode(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	registerDB(t, s, "g", denseDBText(6))

	faultinject.EnableSite("core.budget", faultinject.ModeDelay, 1.0)
	defer faultinject.Disable()
	rec, _ := doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "g", "query": quickQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("delay-mode query failed: %d", rec.Code)
	}
}

// TestChaosTextMemoCacheFaults: the request-text memo lives in the plan
// cache, so a faulted probe or a dropped put must cost time and nothing
// else — every text on every read endpoint answers exactly as it does with
// the cache healthy, whether the text entry was never stored (put faulted)
// or is there and cannot be read (get faulted).
func TestChaosTextMemoCacheFaults(t *testing.T) {
	defer faultinject.Disable()
	ask := func(s *Server, ep, text string) map[string]any {
		t.Helper()
		rec, out := doJSON(t, s, "POST", "/v1/"+ep, map[string]any{"db": "g", "query": text, "strategy": "reduction"})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", ep, rec.Code, rec.Body.String())
		}
		return without(out, append([]string{"cache", "stats"}, volatile...)...)
	}
	healthy := newTestServer(t, Config{})
	registerDB(t, healthy, "g", memoDB)
	for _, site := range []string{"plancache.get", "plancache.put"} {
		s := newTestServer(t, Config{})
		registerDB(t, s, "g", memoDB)
		faultinject.EnableSite(site, faultinject.ModeError, 1.0)
		for _, tc := range memoTexts {
			for _, ep := range []string{"query", "enumerate", "explain"} {
				want := ask(healthy, ep, tc.text)
				for round := 0; round < 2; round++ {
					if got := ask(s, ep, tc.text); !reflect.DeepEqual(got, want) {
						t.Errorf("%s armed, %s %s round %d:\n got  %v\n want %v", site, ep, tc.name, round, got, want)
					}
				}
			}
		}
		faultinject.Disable()
		if h := s.mParseMemoHits.Value(); h != 0 {
			t.Errorf("%s armed: memo hits=%d, want every request parsed", site, h)
		}
		if st, cs := s.GovernStats(), s.CacheStats(); st.ReservedBytes != cs.Bytes {
			t.Errorf("%s armed: ledger holds %d bytes at rest, the cache accounts for %d", site, st.ReservedBytes, cs.Bytes)
		}
	}
}

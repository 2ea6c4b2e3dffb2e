package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testClient returns a client against url whose sleeps are recorded
// instead of performed and whose jitter is pinned to the top of the
// window (rnd = 1 - ε behaves like rnd ≈ 1 for assertions).
func testClient(url string, cfg Config) (*Client, *[]time.Duration) {
	cfg.BaseURL = url
	c := New(cfg)
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	c.rnd = func() float64 { return 0.999 }
	return c, &slept
}

// flakyHandler fails `failures` times with `code` before succeeding.
func flakyHandler(failures int32, code int, header http.Header) (*atomic.Int32, http.HandlerFunc) {
	var calls atomic.Int32
	return &calls, func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= failures {
			for k, vs := range header {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(code)
			w.Write([]byte(`{"error":"transient"}`))
			return
		}
		w.Write([]byte(`{"status":"ok","databases":3}`))
	}
}

func TestRetryThenSuccess(t *testing.T) {
	calls, h := flakyHandler(2, http.StatusServiceUnavailable, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, slept := testClient(srv.URL, Config{MaxRetries: 4, BaseDelay: 100 * time.Millisecond})
	health, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if health.Databases != 3 {
		t.Errorf("databases=%d, want 3", health.Databases)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3 (2 failures + success)", calls.Load())
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(*slept))
	}
	// Full jitter with rnd≈1: windows are ~100ms then ~200ms.
	if (*slept)[0] > 100*time.Millisecond || (*slept)[1] > 200*time.Millisecond ||
		(*slept)[1] <= (*slept)[0] {
		t.Errorf("backoff not exponential: %v", *slept)
	}
	if c.Retries() != 2 {
		t.Errorf("Retries()=%d, want 2", c.Retries())
	}
}

func TestRetryAfterHonored(t *testing.T) {
	hdr := http.Header{}
	hdr.Set("Retry-After", "3")
	_, h := flakyHandler(1, http.StatusTooManyRequests, hdr)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, slept := testClient(srv.URL, Config{BaseDelay: time.Millisecond})
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health: %v", err)
	}
	if len(*slept) != 1 || (*slept)[0] < 3*time.Second {
		t.Errorf("Retry-After: 3 not honored: slept %v", *slept)
	}
}

func TestNonIdempotentNotRetried(t *testing.T) {
	calls, h := flakyHandler(100, http.StatusServiceUnavailable, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, slept := testClient(srv.URL, Config{MaxRetries: 5})
	_, err := c.RegisterDB(context.Background(), "g", "alphabet a\nu a v\n")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("err=%v, want StatusError 503", err)
	}
	if calls.Load() != 1 {
		t.Errorf("register was attempted %d times, want exactly 1", calls.Load())
	}
	if len(*slept) != 0 {
		t.Errorf("register slept %v, want no backoff at all", *slept)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	calls, h := flakyHandler(100, http.StatusNotFound, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, _ := testClient(srv.URL, Config{MaxRetries: 5})
	_, err := c.ListDBs(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("err=%v, want StatusError 404", err)
	}
	if calls.Load() != 1 {
		t.Errorf("404 retried: %d calls", calls.Load())
	}
}

func TestRetryBudgetCapsTotalSleep(t *testing.T) {
	calls, h := flakyHandler(100, http.StatusServiceUnavailable, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, slept := testClient(srv.URL, Config{
		MaxRetries: 50, BaseDelay: 100 * time.Millisecond,
		MaxDelay: 100 * time.Millisecond, RetryBudget: 350 * time.Millisecond,
	})
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("expected a terminal error once the budget ran out")
	}
	var total time.Duration
	for _, d := range *slept {
		total += d
	}
	if total > 350*time.Millisecond {
		t.Errorf("slept %v total, budget was 350ms", total)
	}
	if calls.Load() > 6 {
		t.Errorf("server saw %d calls under a 3-sleep budget", calls.Load())
	}
}

// TestQuotaRetryBudgetSeparateFrom503 pins the two retry budgets: 429
// responses (server refused the work on purpose) give up under the tight
// quota budget, while 503s (server temporarily unable) keep grinding
// through the full transient budget — under identical backoff settings.
func TestQuotaRetryBudgetSeparateFrom503(t *testing.T) {
	cases := []struct {
		name      string
		status    int
		errCode   string
		wantCalls int32 // 1 first try + retries until the relevant budget stops the sleeps
		wantInErr string
	}{
		// Sleeps are pinned at ~100ms each (MaxDelay). Quota budget 150ms
		// admits one 429 sleep; transient budget 450ms admits four.
		{"429 stops on quota budget", http.StatusTooManyRequests, "RESOURCE_EXHAUSTED", 2, "quota-retry budget"},
		{"503 uses transient budget", http.StatusServiceUnavailable, "", 5, "retry budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.WriteHeader(tc.status)
				if tc.errCode != "" {
					w.Write([]byte(`{"error":"no memory budget","code":"` + tc.errCode + `"}`))
					return
				}
				w.Write([]byte(`{"error":"draining"}`))
			}))
			defer srv.Close()
			c, _ := testClient(srv.URL, Config{
				MaxRetries: 50, BaseDelay: 100 * time.Millisecond, MaxDelay: 100 * time.Millisecond,
				RetryBudget: 450 * time.Millisecond, QuotaRetryBudget: 150 * time.Millisecond,
				BreakerThreshold: -1,
			})
			_, err := c.Health(context.Background())
			if err == nil {
				t.Fatal("expected a terminal error")
			}
			if !strings.Contains(err.Error(), tc.wantInErr) {
				t.Errorf("err = %v, want mention of %q", err, tc.wantInErr)
			}
			var se *StatusError
			if !errors.As(err, &se) || se.Code != tc.status || se.ErrCode != tc.errCode {
				t.Errorf("StatusError = %+v, want code %d errcode %q", se, tc.status, tc.errCode)
			}
			if calls.Load() != tc.wantCalls {
				t.Errorf("server saw %d calls, want %d", calls.Load(), tc.wantCalls)
			}
		})
	}
}

func TestCircuitBreakerTripsAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if healthy.Load() {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"boom"}`))
	}))
	defer srv.Close()

	now := time.Unix(1000, 0)
	c, _ := testClient(srv.URL, Config{
		MaxRetries: 0, BreakerThreshold: 3, BreakerCooldown: 10 * time.Second,
	})
	c.now = func() time.Time { return now }
	c.breaker.now = c.now

	// Three consecutive 500s trip the breaker (500 is not retried: only
	// 429/502/503/504 are transient).
	for i := 0; i < 3; i++ {
		if _, err := c.Health(context.Background()); err == nil {
			t.Fatal("expected failure")
		}
	}
	before := calls.Load()
	if _, err := c.Health(context.Background()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker not open: err=%v", err)
	}
	if calls.Load() != before {
		t.Error("open breaker still hit the server")
	}

	// After the cooldown, one half-open probe goes through; its failure
	// re-opens the breaker immediately.
	now = now.Add(11 * time.Second)
	if _, err := c.Health(context.Background()); errors.Is(err, ErrCircuitOpen) {
		t.Fatal("half-open probe was not allowed")
	}
	if _, err := c.Health(context.Background()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("failed probe did not re-open the breaker: err=%v", err)
	}

	// Next cooldown: the server has recovered, the probe closes the
	// breaker, and traffic flows again.
	healthy.Store(true)
	now = now.Add(11 * time.Second)
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("closed breaker refused traffic: %v", err)
	}
}

func TestTransportErrorRetriedAndCounted(t *testing.T) {
	// A server that is immediately closed: every attempt is a transport
	// error, which is retryable for idempotent calls.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()
	c, slept := testClient(url, Config{MaxRetries: 2, BreakerThreshold: -1})
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("expected transport error")
	}
	if len(*slept) != 2 {
		t.Errorf("transport errors slept %d times, want 2 (MaxRetries)", len(*slept))
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"5", 5 * time.Second},
		{" 12 ", 12 * time.Second},
		{"-3", 0},
		{"junk", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Hour).Format(http.TimeFormat), 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestEnumerateRetriedIdempotently pins the paging retry contract: a
// transient 503 on a cursor re-send is retried with the cursor bytes
// re-sent verbatim — so the retried attempt asks for exactly the same
// page and the enumeration neither skips nor duplicates a page — while
// a 410 STALE_CURSOR is permanent and surfaces immediately.
func TestEnumerateRetriedIdempotently(t *testing.T) {
	var calls atomic.Int32
	var mu sync.Mutex
	var cursorsSeen []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/enumerate" {
			t.Errorf("path %s", r.URL.Path)
		}
		var req EnumerateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding enumerate body: %v", err)
		}
		mu.Lock()
		cursorsSeen = append(cursorsSeen, req.Cursor)
		mu.Unlock()
		switch calls.Add(1) {
		case 1:
			// Transient failure on the first attempt for page one.
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"draining"}`))
		case 2:
			// Retried attempt: must carry cursor "c0" again (checked below).
			w.Write([]byte(`{"answers":[["u","v"]],"count":1,"more":true,"next_cursor":"abc","strategy":"reduction","cache":"hit","query_hash":"h"}`))
		default:
			// Page two, requested with the cursor page one returned.
			w.Write([]byte(`{"answers":[["x","y"]],"count":1,"more":false,"strategy":"reduction","cache":"hit","query_hash":"h"}`))
		}
	}))
	defer srv.Close()
	c, _ := testClient(srv.URL, Config{MaxRetries: 3})
	page, err := c.Enumerate(context.Background(), EnumerateRequest{DB: "g", Query: "q", Cursor: "c0", Limit: 1})
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls=%d, want a retry after the 503", calls.Load())
	}
	if page.NextCursor != "abc" || !page.More || page.Count != 1 {
		t.Fatalf("page = %+v", page)
	}
	page2, err := c.Enumerate(context.Background(), EnumerateRequest{DB: "g", Query: "q", Cursor: page.NextCursor, Limit: 1})
	if err != nil {
		t.Fatalf("Enumerate page 2: %v", err)
	}
	if page2.More || page2.Count != 1 || page2.Answers[0][0] != "x" {
		t.Fatalf("page 2 = %+v", page2)
	}
	mu.Lock()
	got := append([]string(nil), cursorsSeen...)
	mu.Unlock()
	// The failed attempt and its retry both carried "c0" byte-for-byte:
	// the server can hand out the same page twice without the client ever
	// skipping past it or double-counting it. Page two then advanced with
	// the freshly minted cursor, exactly once.
	want := []string{"c0", "c0", "abc"}
	if len(got) != len(want) {
		t.Fatalf("cursors seen = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cursor on attempt %d = %q, want %q (full sequence %q)", i+1, got[i], want[i], got)
		}
	}

	staleSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusGone)
		w.Write([]byte(`{"error":"database re-registered","code":"STALE_CURSOR"}`))
	}))
	defer staleSrv.Close()
	c2, slept := testClient(staleSrv.URL, Config{MaxRetries: 3})
	_, err = c2.Enumerate(context.Background(), EnumerateRequest{DB: "g", Query: "q", Cursor: "old"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusGone || se.ErrCode != "STALE_CURSOR" {
		t.Fatalf("err = %v, want 410 STALE_CURSOR", err)
	}
	if len(*slept) != 0 {
		t.Fatalf("client slept %v retrying a permanent 410", *slept)
	}
}

// TestReadReturnsBodyVerbatim: Read goes through the same retry policy as
// the typed calls but hands back the success body undecoded, so fields the
// typed responses do not know (and the typed ones they now do) survive;
// Query on the same body sees the degraded marking.
func TestReadReturnsBodyVerbatim(t *testing.T) {
	const body = `{"sat":true,"degraded":true,"degraded_reason":"admission","from_a_newer_build":[1,2]}`
	calls, flaky := flakyHandler(1, http.StatusServiceUnavailable, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Load() == 0 {
			flaky(w, r)
			return
		}
		calls.Add(1)
		w.Write([]byte(body + "\n"))
	}))
	defer srv.Close()
	c, _ := testClient(srv.URL, Config{})
	raw, err := c.Read(context.Background(), "/v1/query", QueryRequest{DB: "g", Query: "q", Forwarded: true})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(raw) != body {
		t.Errorf("Read = %s, want the body as sent: %s", raw, body)
	}
	if c.Retries() != 1 {
		t.Errorf("retries = %d, want 1: Read must ride the retry policy", c.Retries())
	}
	out, err := c.Query(context.Background(), QueryRequest{DB: "g", Query: "q"})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !out.Sat || !out.Degraded || out.DegradedReason != "admission" {
		t.Errorf("Query = %+v, want the degraded marking decoded", out)
	}
}

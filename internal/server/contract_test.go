package server

// The read endpoints' refusal contract: /v1/query, /v1/explain and
// /v1/enumerate are one admission problem, so every refusal — whichever
// stage raises it — must reach the caller with the same status, the same
// machine-readable code and the same Retry-After on all three. The table
// walks the stages in pipeline order; each row builds a fresh server per
// endpoint, so no row sees another's quota tokens, counters or cache.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

var readEndpoints = []string{"/v1/query", "/v1/explain", "/v1/enumerate"}

// occupyWorkers parks a blocker on every pool worker and returns the
// function that releases them (idempotent, also run at cleanup).
func occupyWorkers(t *testing.T, s *Server) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	released := false
	release = func() {
		if !released {
			released = true
			close(gate)
		}
	}
	t.Cleanup(release)
	for w := 0; w < s.cfg.Workers; w++ {
		blocked := make(chan struct{})
		occupied := false
		// A rendezvous queue only accepts once a worker is parked on it.
		for i := 0; i < 1000 && !occupied; i++ {
			occupied = s.pool.trySubmit(func() { close(blocked); <-gate })
			if !occupied {
				time.Sleep(time.Millisecond)
			}
		}
		if !occupied {
			t.Fatal("could not occupy a worker")
		}
		<-blocked
	}
	return release
}

// contractCase is one refusal: how to get a server into the refusing
// state, what to send, and what must come back on every read endpoint.
type contractCase struct {
	name  string
	cfg   Config
	setup func(t *testing.T, s *Server)       // after registering "g"
	body  func() io.Reader                    // default: a quick query on "g"
	edit  func(r *http.Request) *http.Request // headers, context
	// queryStatus, when set, is the one documented divergence: /v1/query
	// answers a degraded body with this status where the other two refuse
	// with (status, code, retryAfter).
	queryStatus int

	status     int
	code       string
	retryAfter string
}

func jsonBody(s string) func() io.Reader {
	return func() io.Reader { return bytes.NewReader([]byte(s)) }
}

const quickOnG = `{"db":"g","query":"alphabet a b\nx -[ab]-> y\n"}`

func TestReadRefusalContract(t *testing.T) {
	lowPriority := func(r *http.Request) *http.Request {
		r.Header.Set("X-Ecrpq-Priority", "low")
		return r
	}
	cases := []contractCase{
		{
			name:   "draining",
			setup:  func(t *testing.T, s *Server) { s.draining.Store(true) },
			status: http.StatusServiceUnavailable, retryAfter: "1",
		},
		{
			name: "quota",
			cfg:  Config{QuotaRPS: 0.5, QuotaBurst: 1},
			setup: func(t *testing.T, s *Server) {
				if ok, _ := s.quota.Allow("anonymous"); !ok {
					t.Fatal("burst token missing")
				}
			},
			status: http.StatusTooManyRequests, code: "QUOTA_EXCEEDED", retryAfter: "2",
		},
		{
			name: "shed",
			cfg:  Config{MemBudgetBytes: 1 << 20, QueryReserveBytes: 4 << 10, ShedEnabled: true, ShedMemFraction: 0.5},
			setup: func(t *testing.T, s *Server) {
				if !s.broker.TryAcquire(3 << 18) {
					t.Fatal("pressure acquisition failed")
				}
				t.Cleanup(func() { s.broker.Release(3 << 18) })
			},
			edit:   lowPriority,
			status: http.StatusTooManyRequests, code: "SHED", retryAfter: "2",
		},
		{
			name: "oversize body",
			body: func() io.Reader {
				// A valid JSON prefix, so the decoder reads to the byte cap
				// instead of stopping at a syntax error.
				return io.MultiReader(
					bytes.NewReader([]byte(`{"db":"g","query":"`)),
					bytes.NewReader(bytes.Repeat([]byte{'a'}, maxBodyBytes)),
					bytes.NewReader([]byte(`"}`)))
			},
			status: http.StatusRequestEntityTooLarge,
		},
		{name: "bad json", body: jsonBody(`{"db":`), status: http.StatusBadRequest},
		{name: "bad strategy", body: jsonBody(`{"db":"g","query":"alphabet a\nx -[a]-> y\n","strategy":"bogus"}`), status: http.StatusBadRequest},
		{name: "parse error", body: jsonBody(`{"db":"g","query":"this is not a query"}`), status: http.StatusBadRequest},
		// A bad strategy is refused before the query is parsed, and a parse
		// error before the database is looked up.
		{name: "bad strategy before parse", body: jsonBody(`{"db":"nowhere","query":"nope","strategy":"bogus"}`), status: http.StatusBadRequest},
		{name: "parse error before lookup", body: jsonBody(`{"db":"nowhere","query":"nope"}`), status: http.StatusBadRequest},
		{name: "unknown db", body: jsonBody(`{"db":"nowhere","query":"alphabet a\nx -[a]-> y\n"}`), status: http.StatusNotFound},
		{name: "unknown db forwarded", body: jsonBody(`{"db":"nowhere","query":"alphabet a\nx -[a]-> y\n","fwd":true}`), status: http.StatusNotFound},
		{
			name: "quarantined",
			setup: func(t *testing.T, s *Server) {
				corruptMemory(t, s, "g")
				s.scrubOnce(context.Background())
				if !s.isQuarantined("g") {
					t.Fatal("corruption did not quarantine")
				}
			},
			status: http.StatusServiceUnavailable, code: "CORRUPT_LOCAL", retryAfter: "2",
		},
		{
			name:   "memory denied at admission",
			cfg:    Config{MemBudgetBytes: 32 << 10, QueryReserveBytes: 64 << 10},
			status: http.StatusTooManyRequests, code: "RESOURCE_EXHAUSTED", retryAfter: "2",
		},
		{
			name:        "memory denied at admission, degraded fallback on",
			cfg:         Config{MemBudgetBytes: 32 << 10, QueryReserveBytes: 64 << 10, DegradedFallback: true},
			queryStatus: http.StatusOK,
			status:      http.StatusTooManyRequests, code: "RESOURCE_EXHAUSTED", retryAfter: "2",
		},
		{
			// Memory is checked before the pool: a full pool does not mask it.
			name:   "memory denied before overload",
			cfg:    Config{MemBudgetBytes: 32 << 10, QueryReserveBytes: 64 << 10, Workers: 1, QueueDepth: -1},
			setup:  func(t *testing.T, s *Server) { occupyWorkers(t, s) },
			status: http.StatusTooManyRequests, code: "RESOURCE_EXHAUSTED", retryAfter: "2",
		},
		{
			name:   "pool full",
			cfg:    Config{Workers: 1, QueueDepth: -1},
			setup:  func(t *testing.T, s *Server) { occupyWorkers(t, s) },
			status: http.StatusTooManyRequests, code: "OVERLOADED", retryAfter: "1",
		},
		{
			name:   "deadline",
			cfg:    Config{Workers: 1, QueueDepth: 4},
			setup:  func(t *testing.T, s *Server) { occupyWorkers(t, s) },
			body:   jsonBody(`{"db":"g","query":"alphabet a b\nx -[ab]-> y\n","timeout_ms":40}`),
			status: http.StatusGatewayTimeout,
		},
		{
			name:  "client cancel",
			cfg:   Config{Workers: 1, QueueDepth: 4},
			setup: func(t *testing.T, s *Server) { occupyWorkers(t, s) },
			edit: func(r *http.Request) *http.Request {
				ctx, cancel := context.WithCancel(r.Context())
				time.AfterFunc(40*time.Millisecond, cancel)
				return r.WithContext(ctx)
			},
			status: statusClientClosedRequest,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, path := range readEndpoints {
				s := newTestServer(t, tc.cfg)
				registerDB(t, s, "g", "alphabet a b\nu a v\nv b w\n")
				if tc.setup != nil {
					tc.setup(t, s)
				}
				body := jsonBody(quickOnG)
				if tc.body != nil {
					body = tc.body
				}
				req := httptest.NewRequest("POST", path, body())
				if tc.edit != nil {
					req = tc.edit(req)
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				out := decodeRecorded(t, rec)

				if path == "/v1/query" && tc.queryStatus != 0 {
					if rec.Code != tc.queryStatus || out["degraded"] != true || out["degraded_reason"] != "admission" {
						t.Errorf("%s: %d %s, want the degraded %d", path, rec.Code, rec.Body.String(), tc.queryStatus)
					}
					continue
				}
				code, _ := out["code"].(string)
				if rec.Code != tc.status || code != tc.code || rec.Header().Get("Retry-After") != tc.retryAfter {
					t.Errorf("%s: status=%d code=%q Retry-After=%q, want %d %q %q (%s)", path,
						rec.Code, code, rec.Header().Get("Retry-After"), tc.status, tc.code, tc.retryAfter, rec.Body.String())
				}
				if msg, _ := out["error"].(string); msg == "" {
					t.Errorf("%s: refusal without an error message: %s", path, rec.Body.String())
				}
			}
		})
	}
}

// TestFreeVariableQueryContract is the success side for answer sets: a
// free-variable /v1/query is a plan-cache citizen like a Boolean one — its
// cache field is never "bypass", its strategy is the one that ran, and it
// lands in the same counters.
func TestFreeVariableQueryContract(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", "alphabet a b\nu a v\nv b w\n")
	rec, out := doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "g", "query": "alphabet a b\nfree x y\nx -[ab]-> y\n"})
	if rec.Code != http.StatusOK {
		t.Fatalf("%d %s", rec.Code, rec.Body.String())
	}
	if c := out["cache"]; c != "miss" && c != "partial" && c != "hit" {
		t.Errorf("cache=%v, want miss, partial or hit", c)
	}
	strategy, _ := out["strategy"].(string)
	if strategy != "generic" && strategy != "reduction" {
		t.Errorf("strategy=%q under auto, want the resolved strategy", strategy)
	}
	if answers, _ := out["answers"].([]any); len(answers) != 1 {
		t.Errorf("answers=%v, want the one tuple (u, w)", out["answers"])
	}
	if st := s.CacheStats(); st.Entries == 0 {
		t.Error("an answers request left nothing in the plan cache")
	}
	if got := s.mCacheMisses.Value(); got != 1 {
		t.Errorf("plan_cache misses=%d after one cold answers request, want 1", got)
	}
	if got := s.mStrategy[strategy].Value(); got != 1 {
		t.Errorf("strategy_%s=%d after one answers request, want 1", strategy, got)
	}
}

// decodeRecorded decodes a recorded JSON response body.
func decodeRecorded(t *testing.T, rec *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("non-JSON response %q", rec.Body.String())
	}
	return out
}

// TestReadRefusalContractInCluster pins the one-hop rule on every read
// endpoint: a request already marked forwarded is answered here — 404 for
// a database this node does not hold, the typed 503 for a quarantined copy
// — never relayed again.
func TestReadRefusalContractInCluster(t *testing.T) {
	nodes := newTestCluster(t, 2, 2, 2)
	name := nameOwnedBy(t, nodes[0].cl, "n1")
	if err := nodeByID(t, nodes, "n1").srv.RegisterDB(name, mustParseDB(t, denseDBText(8))); err != nil {
		t.Fatal(err)
	}
	waitHolds(t, nodes, nodes[0].cl, name, 1)
	replica := nodeByID(t, nodes, "n2").srv
	replica.quarantine(name, "contract test", false)
	for _, path := range readEndpoints {
		for _, probe := range []struct {
			db         string
			status     int
			code       string
			retryAfter string
		}{
			{"nowhere", http.StatusNotFound, "", ""},
			{name, http.StatusServiceUnavailable, "CORRUPT_LOCAL", "2"},
		} {
			body, err := json.Marshal(map[string]any{"db": probe.db, "query": quickQuery, "fwd": true})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			replica.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			out := decodeRecorded(t, rec)
			code, _ := out["code"].(string)
			if rec.Code != probe.status || code != probe.code || rec.Header().Get("Retry-After") != probe.retryAfter {
				t.Errorf("%s db=%s: status=%d code=%q Retry-After=%q, want %d %q %q", path, probe.db,
					rec.Code, code, rec.Header().Get("Retry-After"), probe.status, probe.code, probe.retryAfter)
			}
		}
	}
	if got := replica.mForwards.Value() + replica.mForwardErrors.Value(); got != 0 {
		t.Errorf("a forwarded request was relayed again (%d forward attempts)", got)
	}
}

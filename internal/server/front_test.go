package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The request front half: the request-text memo (Server.parsed) and the
// buffer-first response encoder (writeJSON).

// TestWriteJSONUnencodable: a value that does not encode used to be the
// intended status over an empty body, because the status line went out
// before the encoder ran. Encoding first makes it a 500 with an error body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &queryResponse{Sat: true, ElapsedMs: math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d for an unencodable response, want 500", rec.Code)
	}
	out := decodeRecorded(t, rec)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "encoding response") {
		t.Fatalf("body %q, want an error naming the encoding failure", rec.Body.String())
	}

	// And the healthy path: compact, one line, with its length announced.
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusTeapot, map[string]any{"a": 1, "b": []int{2, 3}})
	if want := `{"a":1,"b":[2,3]}` + "\n"; rec.Code != http.StatusTeapot || rec.Body.String() != want {
		t.Fatalf("status %d body %q, want 418 %q", rec.Code, rec.Body.String(), want)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", got, rec.Body.Len())
	}
}

// memoDB has two equal-length a/b paths u→w and a b-loop, so every text of
// memoTexts is satisfiable with a witness worth comparing.
const memoDB = "alphabet a b\nu a v\nu b t\nv b w\nt a w\nw b w\n"

// memoTexts are request texts the memo must treat as what they are: distinct
// keys, whatever their canonical hashes say.
var memoTexts = []struct{ name, text string }{
	{"plain", "alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel eqlen(p1, p2)\nlang p1 ab\n"},
	// Same canonical hash as plain: atoms permuted.
	{"permuted", "alphabet a b\nx -[$p2]-> y\nlang p1 ab\nrel eqlen(p1, p2)\nx -[$p1]-> y\n"},
	// Same canonical hash again: only blanks and comments differ.
	{"spaced", "# two tracks\nalphabet a b\n\n  x -[$p1]-> y\nx -[$p2]-> y   \nrel eqlen(p1, p2)\nlang p1 ab\n# end\n"},
	// Another hash: canonicalisation is syntactic.
	{"renamed", "alphabet a b\nn -[$q1]-> m\nn -[$q2]-> m\nrel eqlen(q1, q2)\nlang q1 ab\n"},
	{"free", "alphabet a b\nfree x y\nx -[$p1]-> y\nx -[$p2]-> y\nrel eqlen(p1, p2)\nlang p1 ab\n"},
	{"crpq", "alphabet a b\nfree x\nx -[ab]-> y\ny -[b*]-> z\n"},
}

// volatile are the response fields that are clock readings.
var volatile = []string{"elapsed_ms", "stats_age_seconds"}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func without(m map[string]any, keys ...string) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = v
	}
	for _, k := range keys {
		delete(out, k)
	}
	return out
}

// TestTextMemoDifferential: for every text × strategy × read endpoint, the
// response served off the memo equals, field for field, the response the
// parser produces for the same query in the same cache state (the same text
// plus a trailing comment: another memo key, the same canonical hash), and
// the first, cold response differs from both only in what the plan cache
// reports about itself.
func TestTextMemoDifferential(t *testing.T) {
	for _, strategy := range []string{"", "generic", "reduction"} {
		for _, endpoint := range []string{"query", "explain", "enumerate"} {
			for _, tc := range memoTexts {
				t.Run(fmt.Sprintf("%s/%s/%s", strategy, endpoint, tc.name), func(t *testing.T) {
					s := newTestServer(t, Config{})
					registerDB(t, s, "g", memoDB)
					post := func(text string) map[string]any {
						t.Helper()
						rec, out := doJSON(t, s, "POST", "/v1/"+endpoint,
							map[string]any{"db": "g", "query": text, "strategy": strategy, "execute": true})
						if rec.Code != http.StatusOK {
							t.Fatalf("%d %s", rec.Code, rec.Body.String())
						}
						return out
					}
					cold := post(tc.text)
					hit := post(tc.text)
					if h, m := s.mParseMemoHits.Value(), s.mParseMemoMisses.Value(); h != 1 || m != 1 {
						t.Fatalf("memo hits=%d misses=%d after one text sent twice, want 1 and 1", h, m)
					}
					parsed := post(tc.text + "# the same query under another text\n")
					if h, m := s.mParseMemoHits.Value(), s.mParseMemoMisses.Value(); h != 1 || m != 2 {
						t.Fatalf("memo hits=%d misses=%d after a second text, want 1 and 2", h, m)
					}
					// Measured stage times are the one thing an executed plan
					// reports that two runs do not share.
					for _, out := range []map[string]any{cold, hit, parsed} {
						stages, _ := out["stages"].([]any)
						for _, st := range stages {
							delete(st.(map[string]any), "actual_ms")
						}
					}
					if got, want := without(hit, volatile...), without(parsed, volatile...); !reflect.DeepEqual(got, want) {
						t.Errorf("memo hit differs from a fresh parse:\n hit    %v\n parsed %v", got, want)
					}
					// stats counts the sweep on a miss and the join on a hit;
					// cache is miss → hit as it always was.
					state := append([]string{"cache", "stats", "stages"}, volatile...)
					if got, want := without(hit, state...), without(cold, state...); !reflect.DeepEqual(got, want) {
						t.Errorf("memo hit differs from the cold response:\n hit  %v\n cold %v", got, want)
					}
					if endpoint != "explain" && (cold["cache"] != "miss" || hit["cache"] != "hit") {
						t.Errorf("cache %v → %v, want miss → hit", cold["cache"], hit["cache"])
					}
				})
			}
		}
	}
}

// TestTextMemoSharesPlans: texts with one canonical hash are separate memo
// entries over one plan — the second text is a memo miss and a plan hit.
func TestTextMemoSharesPlans(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", memoDB)
	var hash any
	for i, tc := range memoTexts[:3] {
		rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": tc.text, "strategy": "reduction"})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.name, rec.Code, rec.Body.String())
		}
		if i == 0 {
			hash = out["query_hash"]
		} else if out["query_hash"] != hash || out["cache"] != "hit" {
			t.Errorf("%s: hash %v cache %v, want the plain text's hash %v and a plan hit", tc.name, out["query_hash"], out["cache"], hash)
		}
	}
	// Three text entries, one plan, one materialisation.
	if st := s.CacheStats(); st.Entries != 5 || s.mParseMemoMisses.Value() != 3 {
		t.Errorf("entries=%d memo misses=%d, want 5 and 3", st.Entries, s.mParseMemoMisses.Value())
	}
	// /v1/measures reads the same memo.
	rec, out := doJSON(t, s, "POST", "/v1/measures", map[string]any{"query": memoTexts[0].text})
	if rec.Code != http.StatusOK || out["query_hash"] != hash || s.mParseMemoHits.Value() != 1 {
		t.Errorf("measures: %d hash %v memo hits %d, want 200, %v and 1", rec.Code, out["query_hash"], s.mParseMemoHits.Value(), hash)
	}
}

// TestTextMemoConcurrent: eight goroutines send one memoised text to the
// three read endpoints at once (run under -race): the shared *query.Query is
// read by concurrent prepares, evaluations and enumerations, and every
// response is the sequential one.
func TestTextMemoConcurrent(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", memoDB)
	text := memoTexts[4].text // free variables: all three endpoints have answers to get wrong
	_, want := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": text})
	endpoints := []string{"query", "enumerate", "explain"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				ep := endpoints[(i+round)%len(endpoints)]
				// Strategies rotate too, so first prepares of the shared query race.
				req := map[string]any{"db": "g", "query": text, "strategy": []string{"", "generic", "reduction"}[round%3]}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/"+ep, bytes.NewReader(mustJSON(req))))
				if rec.Code != http.StatusOK {
					t.Errorf("%s: %d %s", ep, rec.Code, rec.Body.String())
					return
				}
				var out map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					t.Errorf("%s: non-JSON response %q", ep, rec.Body.String())
					return
				}
				if out["query_hash"] != want["query_hash"] {
					t.Errorf("%s: query_hash %v, want %v", ep, out["query_hash"], want["query_hash"])
				}
				if ep != "explain" && !reflect.DeepEqual(out["answers"], want["answers"]) {
					t.Errorf("%s: answers %v, want %v", ep, out["answers"], want["answers"])
				}
			}
		}(i)
	}
	wg.Wait()
	if m := s.mParseMemoMisses.Value(); m != 1 {
		t.Errorf("memo misses=%d for one text, want 1", m)
	}
	if st, cs := s.GovernStats(), s.CacheStats(); st.ReservedBytes != cs.Bytes {
		t.Errorf("ledger holds %d bytes at rest, the cache accounts for %d", st.ReservedBytes, cs.Bytes)
	}
}

// TestTextMemoParseErrorNotCached: a text that does not parse is a 400 every
// time and never becomes a cache entry.
func TestTextMemoParseErrorNotCached(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", memoDB)
	doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery})
	before := s.CacheStats()
	for _, ep := range []string{"query", "explain", "enumerate", "query"} {
		rec, out := doJSON(t, s, "POST", "/v1/"+ep, map[string]any{"db": "g", "query": "alphabet a b\nx -[a(]-> y\n"})
		if msg, _ := out["error"].(string); rec.Code != http.StatusBadRequest || !strings.Contains(msg, "missing ')'") {
			t.Errorf("%s: %d %q, want a 400 naming the missing parenthesis", ep, rec.Code, msg)
		}
	}
	if rec, _ := doJSON(t, s, "POST", "/v1/measures", map[string]any{"query": "junk"}); rec.Code != http.StatusBadRequest {
		t.Errorf("measures: %d, want 400", rec.Code)
	}
	if after := s.CacheStats(); after.Entries != before.Entries || after.Bytes != before.Bytes || after.Rejected != before.Rejected {
		t.Errorf("cache went from %+v to %+v over parse errors, want it untouched", before, after)
	}
	if h := s.mParseMemoHits.Value(); h != 0 {
		t.Errorf("memo hits=%d, a parse error was served from the memo", h)
	}
}

// TestTextMemoLedger: text entries are charged to the shared ledger like
// plans (reserved == cached at rest, through re-registration and drop), and
// a text larger than a shard's budget is answered but not kept.
func TestTextMemoLedger(t *testing.T) {
	s := newTestServer(t, Config{CacheBudgetBytes: 16 * (64 << 10), MemBudgetBytes: 64 << 20})
	registerDB(t, s, "g", memoDB)
	atRest := func(when string) {
		t.Helper()
		if st, cs := s.GovernStats(), s.CacheStats(); st.ReservedBytes != cs.Bytes {
			t.Fatalf("%s: ledger holds %d bytes, the cache accounts for %d", when, st.ReservedBytes, cs.Bytes)
		}
	}
	for _, tc := range memoTexts {
		if rec, _ := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": tc.text}); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.name, rec.Code, rec.Body.String())
		}
	}
	atRest("text entries resident")
	if cs := s.CacheStats(); cs.Entries < len(memoTexts) || cs.Rejected != 0 {
		t.Fatalf("entries=%d rejected=%d, want at least the %d text entries and no rejection", cs.Entries, cs.Rejected, len(memoTexts))
	}

	// One shard holds 64 KiB; this text alone is larger.
	big := memoTexts[0].text + strings.Repeat("# sixteen bytes\n", 5<<10)
	entries := s.CacheStats().Entries
	for i := 0; i < 2; i++ {
		rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": big})
		if rec.Code != http.StatusOK || out["sat"] != true {
			t.Fatalf("oversized text: %d %s", rec.Code, rec.Body.String())
		}
	}
	if cs := s.CacheStats(); cs.Rejected != 2 || cs.Entries != entries || s.mParseMemoHits.Value() != 0 {
		t.Fatalf("rejected=%d entries=%d (were %d) memo hits=%d: want the text refused both times and its plan shared with the plain text",
			cs.Rejected, cs.Entries, entries, s.mParseMemoHits.Value())
	}
	atRest("after the oversized text")

	// Texts outlive the database they were first sent against.
	registerDB(t, s, "g", memoDB)
	atRest("after re-registration")
	if rec, _ := doJSON(t, s, "DELETE", "/v1/dbs/g", nil); rec.Code != http.StatusOK {
		t.Fatalf("drop: %d", rec.Code)
	}
	atRest("after drop")
	if cs := s.CacheStats(); cs.Entries < len(memoTexts) {
		t.Fatalf("entries=%d after drop, want the %d text entries still resident", cs.Entries, len(memoTexts))
	}
}

// readBenchTexts are the two request classes of the repository benchmark's
// hot-cache workload in miniature: a thin CRPQ chain and a two-track join,
// both served by a Reduction plan over a cached materialisation. %[1]s is a
// variable suffix: empty for the hit path, fresh per iteration for the miss.
var readBenchTexts = []struct{ name, text string }{
	{"thin", "alphabet a b\nx%[1]s -[a*b]-> y%[1]s\ny%[1]s -[(a|b)a*]-> z%[1]s\nz%[1]s -[b*a]-> w%[1]s\nw%[1]s -[a(a|b)*]-> v%[1]s\n"},
	{"join", "alphabet a b\nx%[1]s -[$p1]-> y%[1]s\ny%[1]s -[$p2]-> z%[1]s\nrel eqlen(p1, p2)\n"},
}

// benchRead drives one read through the handler as the mux sees it.
func benchRead(b *testing.B, s *Server, body string) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(body)))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"sat":true`) {
		b.Fatalf("%d %s", rec.Code, rec.Body.String())
	}
}

func benchBody(text string) string {
	return string(mustJSON(map[string]any{"db": "g", "query": text, "strategy": "reduction"}))
}

// BenchmarkServeReadHit is the front-half layer row: one /v1/query whose
// text, plan and materialisation are all resident, handler to recorder, with
// tracing as the daemon ships it (every request sampled). `make front-gate`
// holds its allocs/op under a ceiling.
func BenchmarkServeReadHit(b *testing.B) {
	for _, tc := range readBenchTexts {
		b.Run(tc.name, func(b *testing.B) {
			s := newTestServer(b, Config{})
			registerDB(b, s, "g", denseDBText(14))
			body := benchBody(fmt.Sprintf(tc.text, ""))
			benchRead(b, s, body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRead(b, s, body)
			}
		})
	}
}

// BenchmarkServeReadMiss is the same request with its variables renamed
// afresh each time: a new text and a new canonical hash, so parse, hash,
// prepare and the Lemma 4.3 sweep all run, and the memo is one wasted probe
// and one put.
func BenchmarkServeReadMiss(b *testing.B) {
	for _, tc := range readBenchTexts {
		b.Run(tc.name, func(b *testing.B) {
			s := newTestServer(b, Config{})
			registerDB(b, s, "g", denseDBText(14))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRead(b, s, benchBody(fmt.Sprintf(tc.text, strconv.Itoa(i))))
			}
		})
	}
}

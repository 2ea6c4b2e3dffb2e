package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"ecrpq/internal/core"
	"ecrpq/internal/plancache"
	"ecrpq/internal/query"
)

// The decided-answer memo: a Boolean query's materialisation carries the
// answer Materialize decided over it, and a hit returns that answer. These
// tests hold the memo to a recompute wherever the cache can go stale or
// lose it.

// answerTexts are Boolean Reduction queries; %[1]s renames their
// variables, which makes a new canonical hash. On answerSatDB every one
// holds; on answerUnsatDB, which has no b-edge, the last two do not.
var answerTexts = []string{
	"alphabet a b\nx%[1]s -[$p1]-> y%[1]s\ny%[1]s -[$p2]-> z%[1]s\nrel eqlen(p1, p2)\n",
	"alphabet a b\nx%[1]s -[a*b]-> y%[1]s\ny%[1]s -[(a|b)a*]-> z%[1]s\nz%[1]s -[b*a]-> w%[1]s\n",
	"alphabet a b\nx%[1]s -[$p1]-> y%[1]s\ny%[1]s -[$p2]-> z%[1]s\nrel eqlen(p1, p2)\ny%[1]s -[bb]-> w%[1]s\n",
}

// evictionTexts are answerTexts whose relation atoms join two paths with
// distinct endpoint variables, so a materialisation keeps every pair of
// destinations and is large enough for the eviction budget to bite.
var evictionTexts = []string{
	"alphabet a b\nx%[1]s -[$p1]-> y%[1]s\nu%[1]s -[$p2]-> z%[1]s\nrel eqlen(p1, p2)\n",
	answerTexts[1],
	"alphabet a b\nx%[1]s -[$p1]-> y%[1]s\nu%[1]s -[$p2]-> z%[1]s\nrel eqlen(p1, p2)\ny%[1]s -[bb]-> w%[1]s\n",
}

var (
	answerSatDB   = denseDBText(8)
	answerUnsatDB = "alphabet a b\nu a v\nv a w\nw a u\n"
)

// askAnswer sends text to /v1/query on database g under the Reduction
// strategy and returns the response.
func askAnswer(t *testing.T, s *Server, text string) map[string]any {
	t.Helper()
	rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": text, "strategy": "reduction"})
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}
	return out
}

// checkAnswer holds a response to a fresh Prepare + Materialize +
// EvaluateContext of its text on the database g holds now: the same sat.
// When the cache holds the text's materialisation at g's generation, the
// answer read off it is the fresh one's, its witness verifies, and it is
// the witness the response rendered.
func checkAnswer(t *testing.T, s *Server, text string, out map[string]any) {
	t.Helper()
	ctx := context.Background()
	q, err := query.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := s.dbs.get("g")
	if !ok {
		t.Fatal("database g is not registered")
	}
	p, err := core.Prepare(q, s.coreOptions(core.Reduction))
	if err != nil {
		t.Fatal(err)
	}
	mat, err := p.Materialize(ctx, entry.db)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := p.EvaluateContext(ctx, entry.db, mat)
	if err != nil {
		t.Fatal(err)
	}
	if out["sat"] != fresh.Sat {
		t.Fatalf("%q: response sat=%v, a recompute says %v", text, out["sat"], fresh.Sat)
	}
	v, ok := s.cache.Get(plancache.Key{QueryHash: query.Hash(q), Strategy: "reduction", DBGen: entry.gen})
	if !ok {
		return
	}
	memo, err := p.EvaluateContext(ctx, entry.db, v.(*core.Materialization))
	if err != nil {
		t.Fatal(err)
	}
	if memo.Sat != fresh.Sat || memo.Stats != fresh.Stats {
		t.Fatalf("%q: the memo says sat=%v stats=%+v, a recompute sat=%v stats=%+v", text, memo.Sat, memo.Stats, fresh.Sat, fresh.Stats)
	}
	if !memo.Sat {
		return
	}
	if err := core.VerifyWitness(entry.db, q, memo); err != nil {
		t.Fatalf("%q: the memo's witness: %v", text, err)
	}
	nodes, paths := map[string]any{}, map[string]any{}
	for v, vertex := range memo.Nodes {
		nodes[v] = entry.db.VertexName(vertex)
	}
	for pv, path := range memo.Paths {
		paths[pv] = path.Format(entry.db)
	}
	if !reflect.DeepEqual(out["nodes"], nodes) || !reflect.DeepEqual(out["paths"], paths) {
		t.Fatalf("%q: the response rendered nodes %v paths %v, the memo holds %v and %v", text, out["nodes"], out["paths"], nodes, paths)
	}
}

// atRestLedger: with no request in flight, the broker holds exactly what
// the cache accounts for — every request's reservation, the rows and the
// decided answer it charged among them, has been given back.
func atRestLedger(t *testing.T, s *Server, when string) {
	t.Helper()
	if got, cached := s.broker.Reserved(), s.CacheStats().Bytes; got != cached {
		t.Fatalf("%s: the broker holds %d bytes, the cache accounts for %d", when, got, cached)
	}
}

// TestAnswerMemoEqualsRecompute: the decided answer a hit returns is the
// answer a recompute gives, across a re-registration that changes it, a
// drop and re-registration, eviction, and concurrent hits.
func TestAnswerMemoEqualsRecompute(t *testing.T) {
	texts := make([]string, len(answerTexts))
	for i, text := range answerTexts {
		texts[i] = fmt.Sprintf(text, "")
	}
	ask := func(t *testing.T, s *Server, text, wantCache string) {
		t.Helper()
		out := askAnswer(t, s, text)
		if out["cache"] != wantCache {
			t.Fatalf("%q: cache=%v, want %s", text, out["cache"], wantCache)
		}
		checkAnswer(t, s, text, out)
	}

	t.Run("re-registration", func(t *testing.T) {
		s := newTestServer(t, Config{})
		registerDB(t, s, "g", answerSatDB)
		for _, text := range texts {
			ask(t, s, text, "miss")
			ask(t, s, text, "hit")
		}
		if got := s.mAnswerMemoHits.Value(); got != uint64(len(texts)) {
			t.Fatalf("memo hits %d, want %d", got, len(texts))
		}
		// A new generation: the cached plans stay, the memo is not read.
		registerDB(t, s, "g", answerUnsatDB)
		for _, text := range texts {
			ask(t, s, text, "partial")
			ask(t, s, text, "hit")
		}
		if got := s.mAnswerMemoHits.Value(); got != 2*uint64(len(texts)) {
			t.Fatalf("memo hits %d after the re-registration, want %d", got, 2*len(texts))
		}
		atRestLedger(t, s, "after re-registration")
	})

	t.Run("drop", func(t *testing.T) {
		s := newTestServer(t, Config{})
		registerDB(t, s, "g", answerUnsatDB)
		for _, text := range texts {
			ask(t, s, text, "miss")
		}
		if rec, _ := doJSON(t, s, "DELETE", "/v1/dbs/g", nil); rec.Code != http.StatusOK {
			t.Fatalf("drop: %d", rec.Code)
		}
		atRestLedger(t, s, "after the drop")
		if rec, _ := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": texts[0], "strategy": "reduction"}); rec.Code != http.StatusNotFound {
			t.Fatalf("query on a dropped database: %d, want 404", rec.Code)
		}
		registerDB(t, s, "g", answerSatDB)
		for _, text := range texts {
			ask(t, s, text, "partial")
			ask(t, s, text, "hit")
		}
		atRestLedger(t, s, "after drop and re-registration")
	})

	t.Run("eviction", func(t *testing.T) {
		s := newTestServer(t, Config{CacheBudgetBytes: 16 * (96 << 10)})
		registerDB(t, s, "g", answerSatDB)
		var renamed []string
		for i := 0; i < 8; i++ {
			for _, text := range evictionTexts {
				renamed = append(renamed, fmt.Sprintf(text, fmt.Sprint(i)))
			}
		}
		seen := map[any]int{}
		for round := 0; round < 2; round++ {
			for _, text := range renamed {
				out := askAnswer(t, s, text)
				checkAnswer(t, s, text, out)
				if round == 1 {
					seen[out["cache"]]++
				}
			}
		}
		if cs := s.CacheStats(); cs.Evictions == 0 || cs.Rejected != 0 || seen["hit"] == 0 || seen["hit"] == len(renamed) {
			t.Fatalf("evictions=%d rejected=%d over %d texts, second round %v: the budget no longer evicts some materialisations and keeps others",
				cs.Evictions, cs.Rejected, len(renamed), seen)
		}
		atRestLedger(t, s, "after eviction")
	})

	t.Run("concurrent-hits", func(t *testing.T) {
		s := newTestServer(t, Config{})
		registerDB(t, s, "g", answerSatDB)
		want := askAnswer(t, s, texts[0])
		checkAnswer(t, s, texts[0], want)
		delete(want, "elapsed_ms")
		want["cache"] = "hit"
		baseline, hits := s.broker.Reserved(), s.mAnswerMemoHits.Value()
		body := mustJSON(map[string]any{"db": "g", "query": texts[0], "strategy": "reduction"})
		const goroutines, rounds = 8, 10
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
					var out map[string]any
					err := json.Unmarshal(rec.Body.Bytes(), &out)
					delete(out, "elapsed_ms")
					if rec.Code != http.StatusOK || err != nil || !reflect.DeepEqual(out, want) {
						t.Errorf("concurrent hit: %d %s, want %v", rec.Code, rec.Body.String(), want)
						return
					}
				}
			}()
		}
		wg.Wait()
		if got := s.mAnswerMemoHits.Value() - hits; got != goroutines*rounds {
			t.Errorf("memo hits %d over %d concurrent hits", got, goroutines*rounds)
		}
		if got := s.broker.Reserved(); got != baseline {
			t.Errorf("the broker holds %d bytes after the hits, %d before", got, baseline)
		}
		checkAnswer(t, s, texts[0], askAnswer(t, s, texts[0]))
	})
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestPerDBCacheMetricsShape pins the JSON shape of the
// plan_cache_by_db expvar: one object per database name, each with
// exactly the keys hits/misses/evictions. Dashboards key on this shape;
// renaming a field must fail here first.
func TestPerDBCacheMetricsShape(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(12))
	registerDB(t, s, "h", denseDBText(8))

	for _, step := range []struct {
		db   string
		want string
		// h's first query shares g's compiled plan (same query hash) but
		// needs its own planner decision: "partial", counted as a miss.
	}{{"g", "miss"}, {"g", "hit"}, {"h", "partial"}} {
		rec, out := doJSON(t, s, "POST", "/v1/query",
			map[string]any{"db": step.db, "query": quickQuery})
		if rec.Code != http.StatusOK {
			t.Fatalf("query %s: %d %s", step.db, rec.Code, rec.Body.String())
		}
		if out["cache"] != step.want {
			t.Fatalf("query %s: cache=%v, want %s", step.db, out["cache"], step.want)
		}
	}
	// Re-registering g bumps its generation; everything cached at the old
	// generation is evicted and must be attributed back to g.
	registerDB(t, s, "g", denseDBText(12))

	raw := s.renderDBCache()
	var shaped map[string]map[string]json.Number
	dec := json.NewDecoder(bytes.NewReader([]byte(raw)))
	dec.UseNumber()
	if err := dec.Decode(&shaped); err != nil {
		t.Fatalf("plan_cache_by_db is not valid JSON: %v\n%s", err, raw)
	}
	names := make([]string, 0, len(shaped))
	for name := range shaped {
		names = append(names, name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{"g", "h"}) {
		t.Fatalf("databases in plan_cache_by_db = %v, want [g h]", names)
	}
	for name, counters := range shaped {
		keys := make([]string, 0, len(counters))
		for k := range counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, []string{"evictions", "hits", "misses"}) {
			t.Fatalf("%s counters have keys %v, want [evictions hits misses]", name, keys)
		}
	}
	if got := shaped["g"]["hits"].String() + "/" + shaped["g"]["misses"].String(); got != "1/1" {
		t.Errorf("g hits/misses = %s, want 1/1", got)
	}
	if got := shaped["h"]["hits"].String() + "/" + shaped["h"]["misses"].String(); got != "0/1" {
		t.Errorf("h hits/misses = %s, want 0/1", got)
	}
	if ev, _ := shaped["g"]["evictions"].Int64(); ev < 1 {
		t.Errorf("g evictions = %d after re-register, want ≥1 (generation invalidation unattributed)", ev)
	}
	if ev, _ := shaped["h"]["evictions"].Int64(); ev != 0 {
		t.Errorf("h evictions = %d, want 0", ev)
	}
}

// TestStatsVersioningOnReregister: re-registering a database recomputes
// its statistics catalog under the new generation, and planner decisions
// made against the old catalog are not reused — /v1/explain reports the
// new stats generation immediately.
func TestStatsVersioningOnReregister(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(12))

	cat1 := s.StatsFor("g")
	if cat1 == nil {
		t.Fatal("no statistics catalog after register")
	}
	rec, out := doJSON(t, s, "POST", "/v1/explain",
		map[string]any{"db": "g", "query": slowQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", rec.Code, rec.Body.String())
	}
	if got, _ := out["stats_generation"].(float64); got != float64(cat1.Generation) {
		t.Fatalf("explain stats_generation=%v, want %d", out["stats_generation"], cat1.Generation)
	}
	if out["strategy_source"] != "planner" {
		t.Fatalf("strategy_source=%v, want planner (stats are present)", out["strategy_source"])
	}

	// New content, same name: the catalog must be recomputed, not reused.
	registerDB(t, s, "g", denseDBText(20))
	cat2 := s.StatsFor("g")
	if cat2 == nil {
		t.Fatal("no statistics catalog after re-register")
	}
	if cat2.Generation <= cat1.Generation {
		t.Fatalf("catalog generation %d after re-register, want > %d", cat2.Generation, cat1.Generation)
	}
	if cat2.Vertices == cat1.Vertices {
		t.Fatalf("catalog still reports %d vertices after re-register with a larger database", cat2.Vertices)
	}
	rec, out = doJSON(t, s, "POST", "/v1/explain",
		map[string]any{"db": "g", "query": slowQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("explain after re-register: %d %s", rec.Code, rec.Body.String())
	}
	if got, _ := out["stats_generation"].(float64); got != float64(cat2.Generation) {
		t.Fatalf("explain stats_generation=%v after re-register, want %d (stale planner decision reused)",
			out["stats_generation"], cat2.Generation)
	}
}

// explainComparable strips the fields that legitimately differ between
// nodes (elapsed time, catalog age) from an /v1/explain response,
// keeping everything the planner decision determines.
func explainComparable(out map[string]any) map[string]any {
	cmp := make(map[string]any, len(out))
	for k, v := range out {
		if k == "elapsed_ms" || k == "stats_age_seconds" {
			continue
		}
		cmp[k] = v
	}
	return cmp
}

// TestClusterReplicaExplainMatchesOwner: the statistics catalog ships
// with replication, so EXPLAIN is byte-identical cluster-wide — the
// replica plans from the owner's catalog, and a non-holder forwards.
func TestClusterReplicaExplainMatchesOwner(t *testing.T) {
	nodes := newTestCluster(t, 3, 2, 3)
	c := nodes[0].cl
	name := nameOwnedBy(t, c, "n1")

	code, _, _ := httpJSON(t, http.DefaultClient, "POST",
		nodes[0].url("/v1/dbs/"+name), []byte(denseDBText(12)))
	if code != http.StatusOK {
		t.Fatalf("register on owner: %d", code)
	}
	waitHolds(t, nodes, c, name, 1)

	holders := map[string]bool{}
	for _, h := range c.Holders(name) {
		holders[h.ID] = true
	}
	body, err := json.Marshal(map[string]any{"db": name, "query": slowQuery})
	if err != nil {
		t.Fatal(err)
	}
	responses := make([]map[string]any, len(nodes))
	for i, nd := range nodes {
		code, out, _ := httpJSON(t, http.DefaultClient, "POST", nd.url("/v1/explain"), body)
		if code != http.StatusOK {
			t.Fatalf("explain on %s: %d (%v)", nd.id, code, out)
		}
		responses[i] = explainComparable(out)
	}
	// Every node — owner, replica holder, forwarding non-holder — must
	// report the same decision, estimates and stats generation.
	for i := 1; i < len(responses); i++ {
		if !reflect.DeepEqual(responses[0], responses[i]) {
			t.Fatalf("explain on %s differs from owner:\nowner: %v\n%s: %v",
				nodes[i].id, responses[0], nodes[i].id, responses[i])
		}
	}
	if responses[0]["strategy_source"] != "planner" {
		t.Fatalf("strategy_source=%v, want planner (replicated stats missing?)", responses[0]["strategy_source"])
	}
	// Sanity: at least one queried node was a replica, not the owner.
	replicaSeen := false
	for id := range holders {
		if id != "n1" {
			replicaSeen = true
		}
	}
	if !replicaSeen {
		t.Fatal("replication factor 2 produced no replica holder")
	}
}

// freeEqQuery is slowQuery with its endpoints free: a multi-page answer
// set whose evaluation strategy the planner chooses.
const freeEqQuery = "alphabet a b\nfree x y\nx -[$p1]-> y\nx -[$p2]-> y\nrel eq(p1, p2)\n"

// TestEnumeratePaginationStableUnderPlanner is the planner-era cursor
// contract: with statistics present and strategy auto, concatenating
// /v1/enumerate pages equals the one-shot /v1/query answer set, and the
// page sequence is deterministic across repeated walks — the planner's
// decision may pick the strategy but must never perturb enumeration
// order between pages of one cursor or between identical requests.
func TestEnumeratePaginationStableUnderPlanner(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(10))

	// The planner must actually be live for this database.
	rec, out := doJSON(t, s, "POST", "/v1/explain",
		map[string]any{"db": "g", "query": freeEqQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", rec.Code, rec.Body.String())
	}
	if out["strategy_source"] != "planner" {
		t.Fatalf("strategy_source=%v, want planner", out["strategy_source"])
	}

	rec, out = doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "g", "query": freeEqQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}
	want := answerStrings(t, out)
	sort.Strings(want)
	if len(want) < 8 {
		t.Fatalf("test wants a multi-page answer set, got %d answers", len(want))
	}

	walk := func() []string {
		var got []string
		cursor := ""
		for page := 0; ; page++ {
			if page > len(want) {
				t.Fatalf("no convergence after %d pages", page)
			}
			body := map[string]any{"db": "g", "query": freeEqQuery, "limit": 3}
			if cursor != "" {
				body["cursor"] = cursor
			}
			rec, out := doJSON(t, s, "POST", "/v1/enumerate", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("page %d: %d %s", page, rec.Code, rec.Body.String())
			}
			got = append(got, answerStrings(t, out)...)
			if more, _ := out["more"].(bool); !more {
				break
			}
			nc, _ := out["next_cursor"].(string)
			if nc == "" {
				t.Fatalf("page %d: more=true without next_cursor", page)
			}
			cursor = nc
		}
		return got
	}

	first := walk()
	second := walk()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two enumeration walks differ under the planner:\n%v\n%v", first, second)
	}
	got := append([]string(nil), first...)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("enumerated %d answers %v, materialized %d %v", len(got), got, len(want), want)
	}
}

// TestExplainManyComponents: past the planner's DP bound the component
// order comes from the greedy pass, whose marginal costs overflow to +Inf
// near 300 disjoint components. The order used to index used[-1] there — a
// runtime panic on a pool worker, which is not an invariant violation and
// so took the process down. The request must be answered like any other.
func TestExplainManyComponents(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(30))
	var sb strings.Builder
	sb.WriteString("alphabet a b\n")
	for i := 0; i < 301; i++ {
		fmt.Fprintf(&sb, "x%d -[a]-> y%d\n", i, i)
	}
	for _, strategy := range []string{"auto", "generic"} {
		rec, out := doJSON(t, s, "POST", "/v1/explain", map[string]any{"db": "g", "query": sb.String(), "strategy": strategy})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s explain of a 301-component query: %d %s", strategy, rec.Code, rec.Body.String())
		}
		// The overflowed estimates must still encode: +Inf has no JSON form,
		// and an encoder error after the 200 header leaves an empty body.
		dec, _ := out["decision"].(map[string]any)
		if _, ok := dec["generic_cost"].(float64); !ok {
			t.Fatalf("%s: no decision in the body (%d bytes)", strategy, rec.Body.Len())
		}
		if order, _ := dec["component_order"].([]any); out["strategy"] == "generic" && len(order) != 301 {
			t.Errorf("%s: component order has %d entries, want 301", strategy, len(order))
		}
	}
	if s.mPanics.Value() != 0 {
		t.Errorf("panics_recovered = %d, want 0", s.mPanics.Value())
	}
}

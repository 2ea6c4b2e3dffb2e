package server

import (
	"net/http"
	"sort"
	"testing"
)

// reachAllQuery has many answers on a dense database: every (x, y) with
// any path from x to y.
const reachAllQuery = "alphabet a b\nfree x y\nx -[(a|b)*]-> y\n"

func answerStrings(t *testing.T, out map[string]any) []string {
	t.Helper()
	raw, ok := out["answers"].([]any)
	if !ok {
		t.Fatalf("no answers array in %v", out)
	}
	rows := make([]string, len(raw))
	for i, r := range raw {
		tup, ok := r.([]any)
		if !ok {
			t.Fatalf("answer %d is %T, want array", i, r)
		}
		s := ""
		for j, v := range tup {
			if j > 0 {
				s += ","
			}
			s += v.(string)
		}
		rows[i] = s
	}
	return rows
}

// TestEnumeratePaginationMatchesQuery is the endpoint's core property:
// for every strategy, concatenating /v1/enumerate pages yields exactly
// the /v1/query answer set — no tuple lost, duplicated, or invented at
// page boundaries — and the ledger drains to zero afterwards.
func TestEnumeratePaginationMatchesQuery(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(10))

	rec, out := doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "g", "query": reachAllQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}
	want := answerStrings(t, out)
	sort.Strings(want)
	if len(want) < 20 {
		t.Fatalf("test wants a multi-page answer set, got %d answers", len(want))
	}

	for _, strat := range []string{"auto", "reduction", "generic"} {
		var got []string
		cursor := ""
		for page := 0; ; page++ {
			if page > len(want) {
				t.Fatalf("strategy %s: no convergence after %d pages", strat, page)
			}
			body := map[string]any{"db": "g", "query": reachAllQuery, "strategy": strat, "limit": 7}
			if cursor != "" {
				body["cursor"] = cursor
			}
			rec, out := doJSON(t, s, "POST", "/v1/enumerate", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("strategy %s page %d: %d %s", strat, page, rec.Code, rec.Body.String())
			}
			rows := answerStrings(t, out)
			if len(rows) > 7 {
				t.Fatalf("strategy %s page %d: %d rows past the limit", strat, page, len(rows))
			}
			got = append(got, rows...)
			if more, _ := out["more"].(bool); !more {
				if nc, _ := out["next_cursor"].(string); nc != "" {
					t.Fatalf("strategy %s: next_cursor %q on the final page", strat, nc)
				}
				break
			}
			nc, _ := out["next_cursor"].(string)
			if nc == "" {
				t.Fatalf("strategy %s page %d: more=true without next_cursor", strat, page)
			}
			cursor = nc
		}
		seen := make(map[string]bool, len(got))
		for _, row := range got {
			if seen[row] {
				t.Fatalf("strategy %s: duplicate answer %q across pages", strat, row)
			}
			seen[row] = true
		}
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("strategy %s: %d enumerated vs %d materialized", strat, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("strategy %s: answer %d = %q, want %q", strat, i, got[i], want[i])
			}
		}
	}
	// Cached plans stay charged to the shared ledger by design; every
	// per-request reservation must be gone.
	if st, cs := s.GovernStats(), s.CacheStats(); st.ReservedBytes != cs.Bytes {
		t.Fatalf("ledger holds %d bytes after enumeration, plan cache accounts for %d — requests leaked the difference",
			st.ReservedBytes, cs.Bytes)
	}
}

// TestEnumeratePageOffsetLimit: a page skips exactly its cursor's offset
// and returns at most limit answers, the next ones in enumeration order; an
// offset at or past the end is an empty final page.
func TestEnumeratePageOffsetLimit(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(10))
	rec, out := doJSON(t, s, "POST", "/v1/enumerate",
		map[string]any{"db": "g", "query": reachAllQuery, "limit": 1000})
	if rec.Code != http.StatusOK {
		t.Fatalf("all answers: %d %s", rec.Code, rec.Body.String())
	}
	all := answerStrings(t, out)
	if more, _ := out["more"].(bool); more || len(all) < 4 {
		t.Fatalf("want every answer of a multi-answer set on one page, got %d (more=%v)", len(all), more)
	}
	rec, out = doJSON(t, s, "POST", "/v1/enumerate",
		map[string]any{"db": "g", "query": reachAllQuery, "limit": 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("first page: %d %s", rec.Code, rec.Body.String())
	}
	cur, err := decodeCursor(out["next_cursor"].(string))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ off, limit, want int }{
		{1, 2, 2},
		{len(all) - 1, 2, 1},
		{len(all), 2, 0},
		{len(all) + 5, 2, 0},
	} {
		cur.Off = tc.off
		rec, out := doJSON(t, s, "POST", "/v1/enumerate",
			map[string]any{"db": "g", "query": reachAllQuery, "limit": tc.limit, "cursor": encodeCursor(cur)})
		if rec.Code != http.StatusOK {
			t.Fatalf("offset %d: %d %s", tc.off, rec.Code, rec.Body.String())
		}
		got := answerStrings(t, out)
		more, _ := out["more"].(bool)
		wantMore := tc.off+tc.limit < len(all)
		if len(got) != tc.want || more != wantMore {
			t.Errorf("offset %d limit %d: %d answers, more=%v; want %d, more=%v", tc.off, tc.limit, len(got), more, tc.want, wantMore)
			continue
		}
		for i, row := range got {
			if row != all[tc.off+i] {
				t.Errorf("offset %d: answer %d = %q, want %q", tc.off, i, row, all[tc.off+i])
			}
		}
	}
}

// TestEnumerateStaleCursor410 pins the generation contract: a cursor
// minted before a database re-register is refused with 410 STALE_CURSOR
// (the enumeration order it offsets into no longer exists).
func TestEnumerateStaleCursor410(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(10))
	rec, out := doJSON(t, s, "POST", "/v1/enumerate",
		map[string]any{"db": "g", "query": reachAllQuery, "limit": 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("first page: %d %s", rec.Code, rec.Body.String())
	}
	cursor, _ := out["next_cursor"].(string)
	if cursor == "" {
		t.Fatal("expected a resumable cursor")
	}

	registerDB(t, s, "g", denseDBText(10)) // same content, new generation

	rec, out = doJSON(t, s, "POST", "/v1/enumerate",
		map[string]any{"db": "g", "query": reachAllQuery, "limit": 1, "cursor": cursor})
	if rec.Code != http.StatusGone {
		t.Fatalf("stale cursor: %d %s, want 410", rec.Code, rec.Body.String())
	}
	if out["code"] != "STALE_CURSOR" {
		t.Fatalf("code=%v, want STALE_CURSOR", out["code"])
	}
}

// TestEnumerateCursorValidation rejects cursors that are garbage or that
// belong to a different query/database/strategy.
func TestEnumerateCursorValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(10))
	registerDB(t, s, "h", denseDBText(10))
	rec, out := doJSON(t, s, "POST", "/v1/enumerate",
		map[string]any{"db": "g", "query": reachAllQuery, "limit": 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("first page: %d %s", rec.Code, rec.Body.String())
	}
	cursor, _ := out["next_cursor"].(string)
	if cursor == "" {
		t.Fatal("expected a resumable cursor")
	}
	cases := []map[string]any{
		{"db": "g", "query": reachAllQuery, "cursor": "!!not-base64!!"},
		{"db": "g", "query": quickQuery, "cursor": cursor},                           // different query
		{"db": "h", "query": reachAllQuery, "cursor": cursor},                        // different db
		{"db": "g", "query": reachAllQuery, "strategy": "generic", "cursor": cursor}, // different strategy
	}
	for i, body := range cases {
		rec, _ := doJSON(t, s, "POST", "/v1/enumerate", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("case %d: %d %s, want 400", i, rec.Code, rec.Body.String())
		}
	}
}

// TestEnumerateBooleanPages: a satisfiable Boolean query is one page
// with a single empty tuple; an unsatisfiable one is one empty page.
func TestEnumerateBooleanPages(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", "alphabet a b\nu a v\n")
	rec, out := doJSON(t, s, "POST", "/v1/enumerate",
		map[string]any{"db": "g", "query": "alphabet a b\nx -[a]-> y\n"})
	if rec.Code != http.StatusOK {
		t.Fatalf("sat: %d %s", rec.Code, rec.Body.String())
	}
	if cnt, _ := out["count"].(float64); cnt != 1 {
		t.Fatalf("sat count=%v, want 1", out["count"])
	}
	if more, _ := out["more"].(bool); more {
		t.Fatal("sat Boolean page claims more answers")
	}
	rec, out = doJSON(t, s, "POST", "/v1/enumerate",
		map[string]any{"db": "g", "query": "alphabet a b\nx -[b]-> y\n"})
	if rec.Code != http.StatusOK {
		t.Fatalf("unsat: %d %s", rec.Code, rec.Body.String())
	}
	if cnt, _ := out["count"].(float64); cnt != 0 {
		t.Fatalf("unsat count=%v, want 0", out["count"])
	}
}

// TestEnumerateLimitClamp: page sizes above EnumerateMaxLimit are
// clamped, and an absent limit takes the configured default.
func TestEnumerateLimitClamp(t *testing.T) {
	s := newTestServer(t, Config{EnumerateDefaultLimit: 3, EnumerateMaxLimit: 5})
	registerDB(t, s, "g", denseDBText(10))
	rec, out := doJSON(t, s, "POST", "/v1/enumerate",
		map[string]any{"db": "g", "query": reachAllQuery, "limit": 1000})
	if rec.Code != http.StatusOK {
		t.Fatalf("clamped page: %d %s", rec.Code, rec.Body.String())
	}
	if cnt, _ := out["count"].(float64); cnt != 5 {
		t.Fatalf("count=%v with limit 1000 under max 5", out["count"])
	}
	rec, out = doJSON(t, s, "POST", "/v1/enumerate",
		map[string]any{"db": "g", "query": reachAllQuery})
	if rec.Code != http.StatusOK {
		t.Fatalf("default page: %d %s", rec.Code, rec.Body.String())
	}
	if cnt, _ := out["count"].(float64); cnt != 3 {
		t.Fatalf("count=%v with default limit 3", out["count"])
	}
}

// TestEnumerateErrors covers the non-cursor refusals: unknown database,
// malformed query, bad strategy.
func TestEnumerateErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(4))
	cases := []struct {
		body map[string]any
		want int
	}{
		{map[string]any{"db": "nope", "query": reachAllQuery}, http.StatusNotFound},
		{map[string]any{"db": "g", "query": "alphabet a\nx -[-> y"}, http.StatusBadRequest},
		{map[string]any{"db": "g", "query": reachAllQuery, "strategy": "quantum"}, http.StatusBadRequest},
	}
	for i, c := range cases {
		rec, _ := doJSON(t, s, "POST", "/v1/enumerate", c.body)
		if rec.Code != c.want {
			t.Fatalf("case %d: %d %s, want %d", i, rec.Code, rec.Body.String(), c.want)
		}
	}
}

// TestEnumerateTimeout504: a tiny deadline against a slow enumeration
// surfaces as 504 with the ledger drained, like /v1/query. The two tracks
// start at distinct free variables, so the Reduction walk guesses all n²
// source pairs and the enumeration stays quadratic in the database.
func TestEnumerateTimeout504(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(200))
	slowFree := "alphabet a b\nfree x1 x2 y\nx1 -[$p1]-> y\nx2 -[$p2]-> y\nrel eq(p1, p2)\n"
	rec, _ := doJSON(t, s, "POST", "/v1/enumerate",
		map[string]any{"db": "g", "query": slowFree, "strategy": "reduction",
			"limit": 1000000, "timeout_ms": 30})
	// A page that outruns a 30ms deadline must be a 504; if this machine
	// finished the full enumeration in time the test proves nothing.
	if rec.Code == http.StatusOK {
		t.Skip("enumeration finished inside 30ms; nothing to assert")
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("code=%d %s, want 504", rec.Code, rec.Body.String())
	}
	if st := s.GovernStats(); st.ReservedBytes != 0 {
		// The worker may still be unwinding; poll briefly via healthz-free wait.
		t.Logf("reserved=%d immediately after 504 (worker unwinding)", st.ReservedBytes)
	}
}

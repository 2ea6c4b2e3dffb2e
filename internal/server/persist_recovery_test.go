package server

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ecrpq/internal/graphdb"
	"ecrpq/internal/integrity"
	"ecrpq/internal/persist"
)

// openStore opens a persist.Store over dir and fails the test on error.
func openStore(t *testing.T, dir string) *persist.Store {
	t.Helper()
	st, err := persist.Open(dir)
	if err != nil {
		t.Fatalf("persist.Open(%s): %v", dir, err)
	}
	return st
}

// attachedServer builds a test server with a store attached, returning the
// restored-entry count.
func attachedServer(t *testing.T, dir string) (*Server, *persist.Store, int) {
	t.Helper()
	st := openStore(t, dir)
	s := newTestServer(t, Config{})
	n, err := s.AttachStore(st)
	if err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	return s, st, n
}

// TestPersistRestartPreservesDBs is the core crash-safety contract at the
// server level: register three databases, "crash" (drop the server, keep
// the directory), restart, and find all three answering queries with their
// pre-crash generations.
func TestPersistRestartPreservesDBs(t *testing.T) {
	dir := t.TempDir()
	s1, st1, n := attachedServer(t, dir)
	if n != 0 {
		t.Fatalf("fresh dir restored %d entries", n)
	}
	names := []string{"alpha", "beta", "gamma"}
	gens := make(map[string]float64)
	for i, name := range names {
		rec, body := doJSON(t, s1, "POST", "/v1/dbs/"+name, denseDBText(6+i))
		if rec.Code != http.StatusOK {
			t.Fatalf("register %s: %d %s", name, rec.Code, rec.Body.String())
		}
		gens[name] = body["generation"].(float64)
	}
	// Replace beta so the restart must pick the newest registration.
	rec, body := doJSON(t, s1, "POST", "/v1/dbs/beta", denseDBText(12))
	if rec.Code != http.StatusOK {
		t.Fatalf("replace beta: %d", rec.Code)
	}
	gens["beta"] = body["generation"].(float64)
	if err := st1.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}
	// No server Shutdown: an abrupt stop is the point.

	s2, st2, n := attachedServer(t, dir)
	defer st2.Close()
	if n != 3 {
		t.Fatalf("restart restored %d entries, want 3 (warnings: %v)", n, st2.Warnings())
	}
	for name, gen := range gens {
		rec, body := doJSON(t, s2, "POST", "/v1/query",
			map[string]any{"db": name, "query": quickQuery})
		if rec.Code != http.StatusOK {
			t.Fatalf("query %s after restart: %d %s", name, rec.Code, rec.Body.String())
		}
		if sat, _ := body["sat"].(bool); !sat {
			t.Errorf("query %s after restart: sat=false", name)
		}
		_, listBody := doJSON(t, s2, "GET", "/v1/dbs", nil)
		for _, row := range listBody["databases"].([]any) {
			m := row.(map[string]any)
			if m["name"] == name && m["generation"].(float64) != gen {
				t.Errorf("%s restored with gen %v, want %v", name, m["generation"], gen)
			}
		}
	}

	// Generations stay monotonic across the restart: a new registration
	// must exceed every pre-crash generation, including replaced ones.
	rec, body = doJSON(t, s2, "POST", "/v1/dbs/delta", denseDBText(5))
	if rec.Code != http.StatusOK {
		t.Fatalf("register after restart: %d", rec.Code)
	}
	newGen := body["generation"].(float64)
	for name, gen := range gens {
		if newGen <= gen {
			t.Errorf("post-restart gen %v not greater than %s's pre-crash gen %v", newGen, name, gen)
		}
	}
}

// TestPersistDropSurvivesRestart: a dropped database must stay dropped
// after replay, even though its registration record precedes the drop.
func TestPersistDropSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, st1, _ := attachedServer(t, dir)
	registerDB(t, s1, "keep", denseDBText(5))
	registerDB(t, s1, "gone", denseDBText(5))
	if rec, _ := doJSON(t, s1, "DELETE", "/v1/dbs/gone", nil); rec.Code != http.StatusOK {
		t.Fatalf("drop: %d", rec.Code)
	}
	st1.Close()

	s2, st2, n := attachedServer(t, dir)
	defer st2.Close()
	if n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	if rec, _ := doJSON(t, s2, "POST", "/v1/query",
		map[string]any{"db": "gone", "query": quickQuery}); rec.Code != http.StatusNotFound {
		t.Errorf("dropped db answered with %d after restart, want 404", rec.Code)
	}
	if rec, _ := doJSON(t, s2, "POST", "/v1/query",
		map[string]any{"db": "keep", "query": quickQuery}); rec.Code != http.StatusOK {
		t.Errorf("kept db: %d, want 200", rec.Code)
	}
	// The dropped registration's snapshot should have been GC'd.
	dents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, de := range dents {
		if strings.HasSuffix(de.Name(), ".snap") {
			snaps++
		}
	}
	if snaps != 1 {
		t.Errorf("%d snapshot files on disk, want 1 (the live db)", snaps)
	}
}

// TestRestoredGraphFreedOnReplace: a restored graph is the registry's alone.
// When its name is registered again the graph is garbage: its finalizer
// runs. While the store kept every restored entry for its life, it never
// ran.
func TestRestoredGraphFreedOnReplace(t *testing.T) {
	dir := t.TempDir()
	s1, st1, _ := attachedServer(t, dir)
	registerDB(t, s1, "g", denseDBText(6))
	st1.Close()

	s2, st2, n := attachedServer(t, dir)
	defer st2.Close()
	if n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	if ents := st2.TakeEntries(); ents != nil {
		t.Fatalf("the store still hands out %d entries after AttachStore took them", len(ents))
	}
	freed := make(chan struct{})
	func() {
		entry, ok := s2.dbs.get("g")
		if !ok {
			t.Fatal("g was not restored")
		}
		runtime.SetFinalizer(entry.db, func(*graphdb.DB) { close(freed) })
	}()
	registerDB(t, s2, "g", denseDBText(7))
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the restored graph was not freed within 10 GCs of its replacement")
}

// TestPersistTornJournalTailAtServer: a crash mid-append leaves a torn
// final record; the server must come up with everything before it.
func TestPersistTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	s1, st1, _ := attachedServer(t, dir)
	registerDB(t, s1, "solid", denseDBText(5))
	st1.Close()

	jpath := filepath.Join(dir, "registry.journal")
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible torn record: a length header promising more bytes than
	// follow.
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, st2, n := attachedServer(t, dir)
	defer st2.Close()
	if n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	if len(st2.Warnings()) == 0 {
		t.Error("torn tail produced no recovery warning")
	}
	if rec, _ := doJSON(t, s2, "POST", "/v1/query",
		map[string]any{"db": "solid", "query": quickQuery}); rec.Code != http.StatusOK {
		t.Errorf("query after torn-tail recovery: %d", rec.Code)
	}
	// The server must still be able to append (the tail was truncated, so
	// the journal is record-aligned again).
	registerDB(t, s2, "fresh", denseDBText(5))
}

// TestPersistFailureDoesNotMutateMemory: when the durability write fails,
// the registration must not be visible — the 500 really means "did not
// happen".
func TestPersistFailureDoesNotMutateMemory(t *testing.T) {
	dir := t.TempDir()
	s, st, _ := attachedServer(t, dir)
	registerDB(t, s, "ok", denseDBText(5))
	// Closing the store makes every subsequent append fail while the
	// server still believes it is attached.
	st.Close()

	rec, _ := doJSON(t, s, "POST", "/v1/dbs/phantom", denseDBText(5))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("register with dead store: %d, want 500", rec.Code)
	}
	if rec, _ := doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "phantom", "query": quickQuery}); rec.Code != http.StatusNotFound {
		t.Errorf("failed registration is visible: query returned %d, want 404", rec.Code)
	}
	rec, _ = doJSON(t, s, "DELETE", "/v1/dbs/ok", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("drop with dead store: %d, want 500", rec.Code)
	}
	if rec, _ := doJSON(t, s, "POST", "/v1/query",
		map[string]any{"db": "ok", "query": quickQuery}); rec.Code != http.StatusOK {
		t.Errorf("failed drop removed the db: query returned %d, want 200", rec.Code)
	}
}

// TestDrainRetryAfter: while draining, queries, registrations and health
// checks answer 503 with a Retry-After hint.
func TestDrainRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(5))
	s.draining.Store(true)

	checks := []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery}},
		{"POST", "/v1/dbs/h", denseDBText(5)},
		{"GET", "/readyz", nil},
	}
	for _, c := range checks {
		rec, body := doJSON(t, s, c.method, c.path, c.body)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s while draining: %d, want 503", c.method, c.path, rec.Code)
		}
		if ra := rec.Header().Get("Retry-After"); ra == "" {
			t.Errorf("%s %s while draining: no Retry-After header", c.method, c.path)
		}
		if body == nil {
			t.Errorf("%s %s while draining: empty body", c.method, c.path)
		}
	}
}

// TestShutdownStuckWorker: a wedged evaluation job must not hang Shutdown
// forever — the ctx deadline bounds the wait and the error reports the
// stuck worker.
func TestShutdownStuckWorker(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 0})
	block := make(chan struct{})
	defer close(block) // let the worker goroutine exit after the test
	if !s.pool.trySubmit(func() { <-block }) {
		t.Fatal("could not submit blocking job")
	}
	// Give the worker a moment to pick the job up.
	deadline := time.Now().Add(time.Second)
	for s.pool.active.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started the job")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown returned nil with a wedged worker")
	}
	if !strings.Contains(err.Error(), "wedged") {
		t.Errorf("error does not mention the wedged worker: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Shutdown took %v, the ctx deadline should have bounded it", elapsed)
	}
}

// TestRestoreVersion1Snapshot: a data dir written before snapshots carried a
// footer — internal/persist's version-1 fixture, its journal and one file —
// restores, serves the graph, and has its catalog and digest recomputed. A
// sidecar file of that era beside it is not read (its digest names other
// content, which would quarantine the entry) and is collected.
func TestRestoreVersion1Snapshot(t *testing.T) {
	dir := t.TempDir()
	fixture := filepath.Join("..", "persist", "testdata", "v1")
	for _, f := range []string{"registry.journal", "db-0000000000000001.snap"} {
		b, err := os.ReadFile(filepath.Join(fixture, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sidecar := filepath.Join(dir, "db-0000000000000001.digest")
	if err := os.WriteFile(sidecar, integrity.Compute(mustParseDB(t, altDBText()), 1).Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, st, n := attachedServer(t, dir)
	defer st.Close()
	if n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	e, _ := s.dbs.get("g")
	if e.gen != 1 || e.db.NumVertices() != 6 {
		t.Fatalf("restored g at gen %d with %d vertices, want gen 1 with 6", e.gen, e.db.NumVertices())
	}
	if e.stats == nil || e.stats.Generation != 1 {
		t.Errorf("catalog not recomputed: %+v", e.stats)
	}
	if want := integrity.Compute(e.db, 1); e.digest != want {
		t.Errorf("digest %v, want the recomputed %v", e.digest, want)
	}
	if s.isQuarantined("g") {
		t.Error("a version-1 restore read the old digest sidecar")
	}
	if _, err := os.Stat(sidecar); !os.IsNotExist(err) {
		t.Errorf("old sidecar survived the restore: %v", err)
	}
	rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery})
	if rec.Code != http.StatusOK || out["sat"] != true {
		t.Errorf("query on the restored version-1 graph: %d %v", rec.Code, out)
	}
}

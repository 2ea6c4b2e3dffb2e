package server

// Integrity subsystem tests: the digest endpoint, the scrub repair
// matrix (disk self-heal, memory reinstall, quarantine), quarantined
// read refusal and cluster failover, replica digest verification, and
// anti-entropy divergence detection. Chaos variants driven by the
// faultinject sites live in integrity_chaos_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"ecrpq/internal/client"
	"ecrpq/internal/cluster"
	"ecrpq/internal/integrity"
	"ecrpq/internal/persist"
)

// altDBText is content-divergent from denseDBText(8) over the same
// alphabet: what a corrupt replica might hold at the same generation.
func altDBText() string { return "alphabet a b\nu a v\nv b u\n" }

// snapPath is the on-disk snapshot location for gen (mirrors the persist
// package's naming; the test corrupts files behind the store's back).
func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("db-%016x.snap", gen))
}

// flipByte corrupts one byte in the middle of a file in place.
func flipByte(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("rewriting %s: %v", path, err)
	}
}

// corruptMemory swaps the in-memory copy of name for divergent content
// at the same generation, keeping the original digest — the picture
// after heap rot: bytes changed, expectation didn't.
func corruptMemory(t *testing.T, s *Server, name string) {
	t.Helper()
	e, ok := s.dbs.get(name)
	if !ok {
		t.Fatalf("no entry %q to corrupt", name)
	}
	rotted := *e
	rotted.db = mustParseDB(t, altDBText())
	s.dbs.install(&rotted)
}

// quarantine marks the live copy of name corrupt-local, as a finding about
// its current generation would.
func (s *Server) quarantine(name, reason string, scrubLiftable bool) {
	if e, ok := s.dbs.get(name); ok {
		s.quarantineEntry(e, reason, scrubLiftable)
	}
}

// isQuarantined reports whether the live copy of name is quarantined.
func (s *Server) isQuarantined(name string) bool {
	e, ok := s.dbs.get(name)
	return ok && e.quar != nil
}

func TestIntegrityEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(6))
	rec, out := doJSON(t, s, "GET", "/v1/integrity/g", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/integrity/g: %d %s", rec.Code, rec.Body.String())
	}
	if out["gen"].(float64) != 1 || out["quarantined"] != false {
		t.Errorf("integrity = %v, want gen 1, not quarantined", out)
	}
	digest, _ := out["digest"].(string)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(digest) {
		t.Errorf("digest %q is not 16 hex chars", digest)
	}
	want := integrity.Compute(mustParseDB(t, denseDBText(6)), 1)
	if digest != want.String() {
		t.Errorf("served digest %s, independently computed %s", digest, want)
	}
	if rec, _ := doJSON(t, s, "GET", "/v1/integrity/nope", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown db: %d, want 404", rec.Code)
	}
}

// TestDigestPersistedAndRestored: the digest sidecar written at register
// time survives a restart, and the restored entry carries a digest that
// matches both the sidecar and recomputation.
func TestDigestPersistedAndRestored(t *testing.T) {
	dir := t.TempDir()
	s1, st1, _ := attachedServer(t, dir)
	registerDB(t, s1, "g", denseDBText(8))
	e1, _ := s1.dbs.get("g")
	sidecar := filepath.Join(dir, fmt.Sprintf("db-%016x.digest", e1.gen))
	raw, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatalf("digest sidecar not written: %v", err)
	}
	dec, err := integrity.Decode(raw)
	if err != nil {
		t.Fatalf("sidecar does not decode: %v", err)
	}
	if dec != e1.digest {
		t.Errorf("sidecar %v, entry %v", dec, e1.digest)
	}
	st1.Close()

	s2, st2, n := attachedServer(t, dir)
	defer st2.Close()
	if n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	e2, _ := s2.dbs.get("g")
	if e2.digest != e1.digest {
		t.Errorf("restored digest %v, want %v", e2.digest, e1.digest)
	}
	if s2.isQuarantined("g") {
		t.Error("clean restore quarantined the database")
	}
}

// TestScrubDiskSelfHeal: a bit-flipped snapshot under a verified
// in-memory copy is rewritten from memory by one scrub pass — no
// quarantine, no serving interruption.
func TestScrubDiskSelfHeal(t *testing.T) {
	dir := t.TempDir()
	s, st, _ := attachedServer(t, dir)
	defer st.Close()
	registerDB(t, s, "g", denseDBText(8))
	e, _ := s.dbs.get("g")
	flipByte(t, snapPath(dir, e.gen))

	s.scrubOnce(context.Background())

	if s.isQuarantined("g") {
		t.Fatal("disk-only corruption quarantined a database with verified memory")
	}
	raw, err := st.ReadSnapshot(e.gen)
	if err != nil {
		t.Fatalf("ReadSnapshot after heal: %v", err)
	}
	db, err := persist.DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("healed snapshot does not decode: %v", err)
	}
	if got, ok := integrity.Verify(db, e.digest); !ok {
		t.Errorf("healed snapshot digests to %v, want %v", got, e.digest)
	}
	if v := s.mScrubCorrupt.Value(); v != 1 {
		t.Errorf("scrub corrupt counter = %d, want 1", v)
	}
	if v := s.mRepairs.Value(); v != 1 {
		t.Errorf("repairs counter = %d, want 1", v)
	}
	// Serving was never interrupted.
	if rec, _ := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery}); rec.Code != http.StatusOK {
		t.Errorf("query after heal: %d", rec.Code)
	}
}

// TestScrubMemoryReinstallsFromDisk: rotted memory under a verified
// on-disk snapshot is replaced by reinstalling the disk copy at the same
// generation, and answers come from the restored content.
func TestScrubMemoryReinstallsFromDisk(t *testing.T) {
	dir := t.TempDir()
	s, st, _ := attachedServer(t, dir)
	defer st.Close()
	registerDB(t, s, "g", denseDBText(8))
	e, _ := s.dbs.get("g")
	corruptMemory(t, s, "g")

	s.scrubOnce(context.Background())

	if s.isQuarantined("g") {
		t.Fatal("memory corruption with good disk quarantined instead of reinstalling")
	}
	cur, _ := s.dbs.get("g")
	if cur.gen != e.gen {
		t.Errorf("reinstall changed generation: %d → %d", e.gen, cur.gen)
	}
	if got, ok := integrity.Verify(cur.db, e.digest); !ok {
		t.Errorf("reinstalled content digests to %v, want %v", got, e.digest)
	}
	if v := s.mRepairs.Value(); v != 1 {
		t.Errorf("repairs counter = %d, want 1", v)
	}
	// The original content had v0 -a-> v1 edges; the divergent copy did
	// not have denseDBText's structure. A query must see the original.
	rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery})
	if rec.Code != http.StatusOK || out["sat"] != true {
		t.Errorf("query after reinstall: %d sat=%v", rec.Code, out["sat"])
	}
}

// TestQuarantineRefusesReads: with no good copy anywhere (memory rotted,
// no store), the scrub quarantines; every read answers the typed 503;
// /healthz reports the quarantine but stays 200; a replacement
// registration heals.
func TestQuarantineRefusesReads(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(8))
	corruptMemory(t, s, "g")

	s.scrubOnce(context.Background())

	if !s.isQuarantined("g") {
		t.Fatal("memory corruption with no disk copy did not quarantine")
	}
	for _, probe := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/query", map[string]any{"db": "g", "query": quickQuery}},
		{"/v1/explain", map[string]any{"db": "g", "query": quickQuery}},
		{"/v1/enumerate", map[string]any{"db": "g", "query": quickQuery}},
	} {
		rec, out := doJSON(t, s, "POST", probe.path, probe.body)
		if rec.Code != http.StatusServiceUnavailable || out["code"] != "CORRUPT_LOCAL" {
			t.Errorf("%s on quarantined db: %d code=%v, want 503 CORRUPT_LOCAL", probe.path, rec.Code, out["code"])
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s: 503 without Retry-After", probe.path)
		}
	}
	// Liveness stays 200 with the quarantine visible in the detail.
	rec, out := doJSON(t, s, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz during quarantine: %d", rec.Code)
	}
	if q, _ := out["quarantined"].(map[string]any); q["g"] == nil {
		t.Errorf("healthz quarantine detail missing: %v", out)
	}
	if v := s.mCorruptRefused.Value(); v != 3 {
		t.Errorf("corrupt refused counter = %d, want 3", v)
	}
	// Re-registration mints a fresh verified generation and lifts the
	// quarantine.
	registerDB(t, s, "g", denseDBText(8))
	if s.isQuarantined("g") {
		t.Error("replacement registration did not lift the quarantine")
	}
	if rec, _ := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery}); rec.Code != http.StatusOK {
		t.Errorf("query after re-register: %d", rec.Code)
	}
}

// newIntegrityCluster is newTestCluster with persistence stores and an
// integrity-oriented config on every node.
func newIntegrityCluster(t *testing.T, n, rf int, cfg Config) []*testClusterNode {
	t.Helper()
	nodes := make([]*testClusterNode, n)
	peers := make([]cluster.Peer, n)
	for i := range nodes {
		srv := newTestServer(t, cfg)
		st := openStore(t, t.TempDir())
		if _, err := srv.AttachStore(st); err != nil {
			t.Fatalf("AttachStore: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		id := fmt.Sprintf("n%d", i+1)
		nodes[i] = &testClusterNode{id: id, srv: srv, ts: ts}
		peers[i] = cluster.Peer{ID: id, URL: ts.URL}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown %s: %v", id, err)
			}
		})
	}
	for i := range nodes {
		attachTestCluster(t, nodes[i], peers, rf)
	}
	return nodes
}

// storeDir reports the data directory behind a node's attached store.
func storeDir(nd *testClusterNode) string {
	return nd.srv.store.Load().Dir()
}

// TestClusterCorruptionFailoverAndRepair is the acceptance scenario: on
// a three-node cluster, one replica's copy of a database rots (snapshot
// bit-flipped on disk, divergent content in memory). The scrub detects
// it and quarantines — the process does not crash — reads sent to the
// corrupt node fail over to a healthy holder and return right answers,
// and the catch-up loop automatically re-fetches a verified copy from the
// ring owner, restoring a matching digest.
func TestClusterCorruptionFailoverAndRepair(t *testing.T) {
	nodes := newIntegrityCluster(t, 3, 2, Config{})
	name := nameOwnedBy(t, nodes[0].cl, "n1")
	owner := nodeByID(t, nodes, "n1")
	code, body, _ := httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/dbs/"+name), []byte(denseDBText(8)))
	if code != http.StatusOK {
		t.Fatalf("register: %d (%v)", code, body)
	}
	gen := uint64(body["generation"].(float64))
	waitHolds(t, nodes, nodes[0].cl, name, gen)

	// Find the non-owner holder and rot both of its copies.
	var victim *testClusterNode
	for _, h := range nodes[0].cl.Holders(name) {
		if h.ID != "n1" {
			victim = nodeByID(t, nodes, h.ID)
		}
	}
	if victim == nil {
		t.Fatal("no replica holder")
	}
	wantDigest, _ := victim.srv.dbs.get(name)
	flipByte(t, snapPath(storeDir(victim), gen))
	corruptMemory(t, victim.srv, name)

	victim.srv.scrubOnce(context.Background())
	if !victim.srv.isQuarantined(name) {
		t.Fatal("scrub did not quarantine the doubly-corrupt replica")
	}

	// A read sent to the corrupt node fails over and still answers.
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	qbody, _ := json.Marshal(map[string]any{"db": name, "query": quickQuery})
	code, out, _ := httpJSON(t, noRedirect, "POST", victim.url("/v1/query"), qbody)
	if code != http.StatusOK || out["sat"] != true {
		t.Fatalf("read on corrupt node did not fail over: %d (%v)", code, out)
	}
	// A forwarded read (one-hop contract) gets the typed refusal.
	fbody, _ := json.Marshal(map[string]any{"db": name, "query": quickQuery, "fwd": true})
	code, out, _ = httpJSON(t, noRedirect, "POST", victim.url("/v1/query"), fbody)
	if code != http.StatusServiceUnavailable || out["code"] != "CORRUPT_LOCAL" {
		t.Fatalf("forwarded read on corrupt node: %d code=%v, want 503 CORRUPT_LOCAL", code, out["code"])
	}

	// The catch-up loop re-fetches from the owner without intervention.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if !victim.srv.isQuarantined(name) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if victim.srv.isQuarantined(name) {
		t.Fatal("catch-up did not re-fetch within 10s")
	}
	repaired, _ := victim.srv.dbs.get(name)
	if repaired.gen != gen || repaired.digest != wantDigest.digest {
		t.Fatalf("repaired entry gen %d digest %v, want gen %d digest %v",
			repaired.gen, repaired.digest, gen, wantDigest.digest)
	}
	if got, ok := integrity.Verify(repaired.db, repaired.digest); !ok {
		t.Errorf("repaired content digests to %v, want %v", got, repaired.digest)
	}
	// Local reads serve again.
	code, out, _ = httpJSON(t, noRedirect, "POST", victim.url("/v1/query"), fbody)
	if code != http.StatusOK || out["sat"] != true {
		t.Errorf("local read after repair: %d (%v)", code, out)
	}
}

// TestReplicateRejectsDigestMismatch: a shipped record whose snapshot
// does not match its digest is rejected with 422 and never installed.
func TestReplicateRejectsDigestMismatch(t *testing.T) {
	nodes := newTestCluster(t, 3, 2, 3)
	name := nameOwnedBy(t, nodes[0].cl, "n1")
	replica := nodeByID(t, nodes, nodes[0].cl.Holders(name)[1].ID)

	db := mustParseDB(t, denseDBText(8))
	wrong := integrity.Compute(mustParseDB(t, altDBText()), 1)
	rec := client.ReplicateRecord{
		Op: "register", Name: name, Gen: 1,
		UnixNano: time.Now().UnixNano(),
		Snapshot: persist.EncodeSnapshot(db),
		Digest:   wrong.Encode(),
	}
	body, _ := json.Marshal(rec)
	code, out, _ := httpJSON(t, http.DefaultClient, "POST", replica.url("/v1/replicate"), body)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched replicate: %d (%v), want 422", code, out)
	}
	if _, ok := replica.srv.dbs.get(name); ok {
		t.Error("divergent record was installed despite digest mismatch")
	}
	if v := replica.srv.mApplyRejected.Value(); v != 1 {
		t.Errorf("apply rejected counter = %d, want 1", v)
	}
	// The same record with the right digest applies cleanly.
	rec.Digest = integrity.Compute(db, 1).Encode()
	body, _ = json.Marshal(rec)
	if code, out, _ = httpJSON(t, http.DefaultClient, "POST", replica.url("/v1/replicate"), body); code != http.StatusOK {
		t.Fatalf("matching replicate: %d (%v)", code, out)
	}
	if e, ok := replica.srv.dbs.get(name); !ok || e.gen != 1 {
		t.Error("matching record did not install")
	}
}

// TestAntiEntropyDetectsDivergence: a replica holding divergent content
// at the owner's generation — with a locally consistent digest, so its
// own scrub sees nothing wrong — is caught by the cross-holder digest
// comparison, quarantined, and repaired from the owner.
func TestAntiEntropyDetectsDivergence(t *testing.T) {
	nodes := newIntegrityCluster(t, 3, 2, Config{})
	name := nameOwnedBy(t, nodes[0].cl, "n1")
	owner := nodeByID(t, nodes, "n1")
	code, body, _ := httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/dbs/"+name), []byte(denseDBText(8)))
	if code != http.StatusOK {
		t.Fatalf("register: %d (%v)", code, body)
	}
	gen := uint64(body["generation"].(float64))
	waitHolds(t, nodes, nodes[0].cl, name, gen)

	var victim *testClusterNode
	for _, h := range nodes[0].cl.Holders(name) {
		if h.ID != "n1" {
			victim = nodeByID(t, nodes, h.ID)
		}
	}
	// Silent divergence: different content whose digest is self-
	// consistent (scrub-proof) but differs from the owner's.
	divergent := mustParseDB(t, altDBText())
	e, _ := victim.srv.dbs.get(name)
	swapped := *e
	swapped.db, swapped.digest = divergent, integrity.Compute(divergent, gen)
	victim.srv.dbs.install(&swapped)

	victim.srv.scrubOnce(context.Background())
	if victim.srv.isQuarantined(name) {
		t.Fatal("test premise broken: local scrub caught the self-consistent divergence")
	}

	victim.srv.antiEntropyOnce(context.Background(), victim.cl)
	if !victim.srv.isQuarantined(name) {
		t.Fatal("anti-entropy did not flag the divergent replica")
	}
	if v := victim.srv.mAEDivergent.Value(); v != 1 {
		t.Errorf("anti-entropy divergence counter = %d, want 1", v)
	}

	// Repair converges the replica back to the owner's digest.
	ownerEntry, _ := owner.srv.dbs.get(name)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cur, ok := victim.srv.dbs.get(name); ok && !victim.srv.isQuarantined(name) && cur.digest == ownerEntry.digest {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	cur, _ := victim.srv.dbs.get(name)
	t.Fatalf("divergent replica did not converge: digest %v, owner %v", cur.digest, ownerEntry.digest)
}

// TestRestoreDigestMismatchStaysQuarantined: content restored against a
// disagreeing digest sidecar is quarantined with the *persisted* digest
// as the entry's expectation — so a scrub pass re-finds the mismatch and
// keeps the quarantine, instead of verifying the corrupt content against
// a digest computed from itself and lifting it.
func TestRestoreDigestMismatchStaysQuarantined(t *testing.T) {
	dir := t.TempDir()
	s1, st1, _ := attachedServer(t, dir)
	registerDB(t, s1, "g", denseDBText(8))
	e1, _ := s1.dbs.get("g")
	st1.Close()

	// Simulate at-rest damage the snapshot CRC cannot see: the sidecar
	// (the authoritative record of what was registered) disagrees with
	// what the snapshot decodes to.
	want := integrity.Compute(mustParseDB(t, altDBText()), e1.gen)
	sidecar := filepath.Join(dir, fmt.Sprintf("db-%016x.digest", e1.gen))
	if err := os.WriteFile(sidecar, want.Encode(), 0o644); err != nil {
		t.Fatalf("tampering sidecar: %v", err)
	}

	s2, st2, n := attachedServer(t, dir)
	defer st2.Close()
	if n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	if !s2.isQuarantined("g") {
		t.Fatal("restore digest mismatch did not quarantine")
	}
	e2, _ := s2.dbs.get("g")
	if e2.digest != want {
		t.Fatalf("entry digest %v, want the persisted sidecar digest %v (a digest computed from the restored content self-verifies and defeats the quarantine)", e2.digest, want)
	}

	// The scrub re-checks memory and disk against the authoritative
	// digest, finds both failing, and must keep the quarantine.
	s2.scrubOnce(context.Background())
	if !s2.isQuarantined("g") {
		t.Fatal("scrub pass lifted a restore quarantine without verified replacement content")
	}
	rec, out := doJSON(t, s2, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery})
	if rec.Code != http.StatusServiceUnavailable || out["code"] != "CORRUPT_LOCAL" {
		t.Errorf("query on restore-quarantined db: %d code=%v, want 503 CORRUPT_LOCAL", rec.Code, out["code"])
	}

	// A replacement registration mints a fresh verified generation.
	registerDB(t, s2, "g", denseDBText(8))
	if s2.isQuarantined("g") {
		t.Error("replacement registration did not lift the restore quarantine")
	}
}

// TestScrubCannotLiftAntiEntropyQuarantine: an anti-entropy quarantine
// records divergence from the ring owner; the divergent content is
// locally self-consistent, so a scrub pass that verifies everything
// clean proves nothing about it and must not lift it. Only a verified
// re-install (here: a replacement registration) does.
func TestScrubCannotLiftAntiEntropyQuarantine(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(8))
	s.quarantine("g", "anti-entropy: gen 1 digest diverges from owner", false)

	s.scrubOnce(context.Background())
	if !s.isQuarantined("g") {
		t.Fatal("scrub lifted an anti-entropy quarantine it cannot locally re-verify")
	}
	if v := s.mRepairs.Value(); v != 0 {
		t.Errorf("repairs counter = %d after a no-op scrub, want 0", v)
	}

	registerDB(t, s, "g", denseDBText(8))
	if s.isQuarantined("g") {
		t.Error("verified re-install did not lift the anti-entropy quarantine")
	}
}

// TestScrubSkipsDiskCheckUnderLedgerPressure: a disk check the scrub
// could not run (ledger refused the snapshot-read reservation) is not
// evidence of rot — no corruption finding, no counter, and crucially no
// snapshot rewrite on every pass while the pressure lasts. Once the
// ledger frees up, the next pass runs the real check and heals.
func TestScrubSkipsDiskCheckUnderLedgerPressure(t *testing.T) {
	const budget = 1 << 20
	dir := t.TempDir()
	st := openStore(t, dir)
	s := newTestServer(t, Config{MemBudgetBytes: budget})
	if _, err := s.AttachStore(st); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	defer st.Close()
	registerDB(t, s, "g", denseDBText(8))
	e, _ := s.dbs.get("g")
	size, err := st.SnapshotSize(e.gen)
	if err != nil {
		t.Fatalf("SnapshotSize: %v", err)
	}

	// Occupy the ledger so the scrub's reservation for the snapshot read
	// must fail, then rot the disk copy behind the store's back.
	res, err := s.broker.Reserve(budget - s.broker.Reserved() - size + 1)
	if err != nil {
		t.Fatalf("occupying ledger: %v", err)
	}
	flipByte(t, snapPath(dir, e.gen))
	before, err := os.ReadFile(snapPath(dir, e.gen))
	if err != nil {
		t.Fatalf("reading rotted snapshot: %v", err)
	}

	s.scrubOnce(context.Background())
	if v := s.mScrubCorrupt.Value(); v != 0 {
		t.Errorf("inconclusive disk check counted as corruption (counter = %d)", v)
	}
	if s.isQuarantined("g") {
		t.Error("inconclusive disk check under verified memory quarantined the database")
	}
	after, err := os.ReadFile(snapPath(dir, e.gen))
	if err != nil {
		t.Fatalf("re-reading snapshot: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Error("scrub rewrote the snapshot despite an inconclusive disk check")
	}

	// Pressure off: the real check runs, finds the rot, and self-heals.
	res.Release()
	s.scrubOnce(context.Background())
	if v := s.mScrubCorrupt.Value(); v != 1 {
		t.Errorf("scrub corrupt counter = %d after pressure lifted, want 1", v)
	}
	if v := s.mRepairs.Value(); v != 1 {
		t.Errorf("repairs counter = %d after pressure lifted, want 1", v)
	}
}

// TestScrubPaceDelayOverflowSafe: the pacing sleep must stay exact for
// ordinary sizes and non-negative for snapshots past ~9.2 GB, where the
// old size*time.Second computation overflowed int64 and disabled pacing
// for exactly the files that need it most.
func TestScrubPaceDelayOverflowSafe(t *testing.T) {
	if d := scrubPaceDelay(12<<20, 8<<20); d != 1500*time.Millisecond {
		t.Errorf("12 MiB at 8 MiB/s = %v, want 1.5s", d)
	}
	if d := scrubPaceDelay(10<<30, 8<<20); d != 1280*time.Second {
		t.Errorf("10 GiB at 8 MiB/s = %v, want 1280s (old computation went negative)", d)
	}
	if d := scrubPaceDelay(math.MaxInt64, 1); d != time.Duration(math.MaxInt64) {
		t.Errorf("MaxInt64 bytes at 1 B/s = %v, want the clamped maximum", d)
	}
	for _, size := range []int64{0, 1, 10 << 30, 100 << 30, math.MaxInt64} {
		if d := scrubPaceDelay(size, 8<<20); d < 0 {
			t.Errorf("scrubPaceDelay(%d, 8Mi) = %v, negative", size, d)
		}
	}
	if d := scrubPaceDelay(100, 0); d != 0 {
		t.Errorf("zero pace = %v, want 0 (no pacing)", d)
	}
}

//go:build faultinject

package server

// Corruption chaos for the integrity subsystem, driven by the
// "integrity.bitflip" and "integrity.digest" fault sites. The contract
// under injected rot mirrors the cluster chaos contract: corruption is
// detected (never silently served), surfaces as typed refusals or
// transparent failover (never a crash or a hang), and the system heals
// completely once injection stops — self-heal, reinstall, or re-fetch
// depending on what survived. The faultinject registry is
// process-global, so cluster tests drive scrub passes manually on the
// victim node instead of enabling background loops everywhere.

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"

	"ecrpq/internal/faultinject"
	"ecrpq/internal/integrity"
)

// TestChaosScrubBitflipSelfHeals: with "integrity.bitflip" active the
// scrub sees at-rest rot in every snapshot read; memory is fine, so each
// pass self-heals by rewriting from the verified in-memory copy, and
// serving is never interrupted. Once injection stops, a pass comes back
// clean.
func TestChaosScrubBitflipSelfHeals(t *testing.T) {
	dir := t.TempDir()
	s, st, _ := attachedServer(t, dir)
	defer st.Close()
	registerDB(t, s, "g", denseDBText(8))

	faultinject.EnableSite("integrity.bitflip", faultinject.ModeError, 1.0)
	s.scrubOnce(context.Background())
	faultinject.Disable()

	if s.isQuarantined("g") {
		t.Fatal("disk rot under verified memory must self-heal, not quarantine")
	}
	if v := s.mScrubCorrupt.Value(); v != 1 {
		t.Errorf("scrub corrupt counter = %d, want 1", v)
	}
	if v := s.mRepairs.Value(); v != 1 {
		t.Errorf("repairs counter = %d, want 1", v)
	}
	if rec, _ := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery}); rec.Code != http.StatusOK {
		t.Errorf("query during rot: %d", rec.Code)
	}

	// Injection off: the rewritten snapshot verifies end to end.
	before := s.mScrubCorrupt.Value()
	s.scrubOnce(context.Background())
	if v := s.mScrubCorrupt.Value(); v != before {
		t.Errorf("clean pass still found corruption (counter %d → %d)", before, v)
	}
}

// TestChaosScrubDigestQuarantinesAndRefuses: with "integrity.digest"
// active on a store-less node, every copy the scrub can check fails
// verification — the database is quarantined and reads answer the typed
// 503 while everything else keeps serving. A verified replacement
// registration heals.
func TestChaosScrubDigestQuarantinesAndRefuses(t *testing.T) {
	s := newTestServer(t, Config{})
	registerDB(t, s, "g", denseDBText(8))
	registerDB(t, s, "h", denseDBText(6))

	faultinject.EnableSite("integrity.digest", faultinject.ModeError, 1.0)
	s.scrubOnce(context.Background())
	faultinject.Disable()

	if !s.isQuarantined("g") || !s.isQuarantined("h") {
		t.Fatal("injected digest corruption with no disk copy did not quarantine")
	}
	rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery})
	if rec.Code != http.StatusServiceUnavailable || out["code"] != "CORRUPT_LOCAL" {
		t.Fatalf("query on quarantined db: %d code=%v, want 503 CORRUPT_LOCAL", rec.Code, out["code"])
	}
	// Replacement registration mints a fresh verified generation.
	registerDB(t, s, "g", denseDBText(8))
	if s.isQuarantined("g") {
		t.Error("re-registration did not lift the quarantine")
	}
	if rec, _ := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery}); rec.Code != http.StatusOK {
		t.Errorf("query after re-register: %d", rec.Code)
	}
	// The untouched database is still quarantined (nothing healed it) but
	// its refusal is typed, not a crash.
	if rec, out := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": "h", "query": quickQuery}); rec.Code != http.StatusServiceUnavailable || out["code"] != "CORRUPT_LOCAL" {
		t.Errorf("query on still-quarantined db: %d code=%v", rec.Code, out["code"])
	}
}

// TestChaosReplicateDivergenceRejected: with "integrity.digest" active,
// every replica apply verifies against divergent content and rejects the
// ship — nothing corrupt installs, the owner's registration itself
// succeeds, and once injection stops the catch-up loop converges the
// cluster with no goroutine leaks.
func TestChaosReplicateDivergenceRejected(t *testing.T) {
	nodes := newTestCluster(t, 3, 2, 3)
	name := nameOwnedBy(t, nodes[0].cl, "n1")
	owner := nodeByID(t, nodes, "n1")
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	baseline := runtime.NumGoroutine()

	faultinject.EnableSite("integrity.digest", faultinject.ModeError, 1.0)
	code, body, _ := httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/dbs/"+name), []byte(denseDBText(8)))
	if code != http.StatusOK {
		faultinject.Disable()
		t.Fatalf("register under digest chaos: %d (%v)", code, body)
	}
	gen := uint64(body["generation"].(float64))

	// Give synchronous shipping a moment, then confirm no replica
	// installed the record: each apply recomputed a divergent digest and
	// rejected it.
	time.Sleep(150 * time.Millisecond)
	rejected := uint64(0)
	for _, nd := range nodes {
		if nd == owner {
			continue
		}
		if _, ok := nd.srv.dbs.get(name); ok {
			faultinject.Disable()
			t.Fatalf("node %s installed a record that failed digest verification", nd.id)
		}
		rejected += uint64(nd.srv.mApplyRejected.Value())
	}
	if rejected == 0 {
		faultinject.Disable()
		t.Fatal("no replica counted an apply rejection")
	}
	faultinject.Disable()

	// Heal: catch-up re-pulls, verification now passes, cluster converges.
	waitHolds(t, nodes, nodes[0].cl, name, gen)
	for _, h := range nodes[0].cl.Holders(name) {
		nd := nodeByID(t, nodes, h.ID)
		e, ok := nd.srv.dbs.get(name)
		if !ok || e.gen != gen {
			t.Fatalf("node %s did not converge to gen %d", h.ID, gen)
		}
		if got, okv := integrity.Verify(e.db, e.digest); !okv {
			t.Errorf("node %s converged with unverifiable content (digest %v, entry %v)", h.ID, got, e.digest)
		}
	}
	waitGoroutines(t, baseline)
}

// TestChaosClusterBitflipFailoverAndRepair is the acceptance chaos run:
// a three-node cluster, one replica scrubs through "integrity.bitflip"
// (its disk reads rot) combined with "integrity.digest" (its memory
// verification fails too), so both copies are bad and the node
// quarantines. Reads sent to it transparently fail over with right
// answers, the catch-up loop re-fetches a verified copy from the ring
// owner once injection stops, and the process never crashes.
func TestChaosClusterBitflipFailoverAndRepair(t *testing.T) {
	nodes, name, gen, baseline := clusterChaosSetup(t, 2)

	var victim *testClusterNode
	for _, h := range nodes[0].cl.Holders(name) {
		if h.ID != "n1" {
			victim = nodeByID(t, nodes, h.ID)
		}
	}
	if victim == nil {
		t.Fatal("no replica holder")
	}
	want, _ := victim.srv.dbs.get(name)

	// Both fault sites on; only the victim runs a scrub pass, so the
	// process-global injection stays scoped to it.
	faultinject.EnableSite("integrity.bitflip", faultinject.ModeError, 1.0)
	faultinject.EnableSite("integrity.digest", faultinject.ModeError, 1.0)
	victim.srv.scrubOnce(context.Background())

	if !victim.srv.isQuarantined(name) {
		faultinject.Disable()
		t.Fatal("scrub with both copies rotted did not quarantine")
	}

	// Reads against the corrupt node under active injection: transparent
	// failover to a healthy holder, right answers, no crash.
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	qbody, _ := json.Marshal(map[string]any{"db": name, "query": quickQuery})
	code, out, _ := httpJSON(t, noRedirect, "POST", victim.url("/v1/query"), qbody)
	if code != http.StatusOK || out["sat"] != true {
		faultinject.Disable()
		t.Fatalf("read on quarantined node did not fail over: %d (%v)", code, out)
	}
	fbody, _ := json.Marshal(map[string]any{"db": name, "query": quickQuery, "fwd": true})
	code, out, _ = httpJSON(t, noRedirect, "POST", victim.url("/v1/query"), fbody)
	if code != http.StatusServiceUnavailable || out["code"] != "CORRUPT_LOCAL" {
		faultinject.Disable()
		t.Fatalf("forwarded read on quarantined node: %d code=%v, want 503 CORRUPT_LOCAL", code, out["code"])
	}

	// Injection stops (the rot is "replaced hardware"); the catch-up loop
	// re-fetches from the owner and the digest matches again.
	faultinject.Disable()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if !victim.srv.isQuarantined(name) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if victim.srv.isQuarantined(name) {
		t.Fatal("catch-up did not re-fetch after injection stopped")
	}
	repaired, _ := victim.srv.dbs.get(name)
	if repaired.gen != gen || repaired.digest != want.digest {
		t.Fatalf("repaired gen %d digest %v, want gen %d digest %v", repaired.gen, repaired.digest, gen, want.digest)
	}
	code, out, _ = httpJSON(t, noRedirect, "POST", victim.url("/v1/query"), fbody)
	if code != http.StatusOK || out["sat"] != true {
		t.Errorf("local read after repair: %d (%v)", code, out)
	}
	waitGoroutines(t, baseline)
}

package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ecrpq/internal/server/metrics"
)

// readyzStub is a minimal peer: /readyz answers 200 or 503 depending on
// the ready flag.
func readyzStub(t *testing.T) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	var ready atomic.Bool
	ready.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		code := http.StatusOK
		if !ready.Load() {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		if err := json.NewEncoder(w).Encode(map[string]string{"status": "ok"}); err != nil {
			t.Errorf("encoding stub response: %v", err)
		}
	}))
	t.Cleanup(ts.Close)
	return ts, &ready
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NodeID: "n1"}); err == nil {
		t.Error("New with no peers: want error")
	}
	if _, err := New(Config{NodeID: "nope", Peers: testPeers(3)}); err == nil {
		t.Error("New with node id outside the peer list: want error")
	}
	c, err := New(Config{NodeID: "n2", Peers: testPeers(3)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.Self().ID != "n2" {
		t.Errorf("Self = %s, want n2", c.Self().ID)
	}
	if c.ReplicationFactor() != 2 {
		t.Errorf("default replication factor = %d, want 2", c.ReplicationFactor())
	}
	// RF is clamped to the peer count.
	c2, err := New(Config{NodeID: "n1", Peers: testPeers(2), ReplicationFactor: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c2.ReplicationFactor() != 2 {
		t.Errorf("clamped replication factor = %d, want 2", c2.ReplicationFactor())
	}
}

func TestPlacementAccessors(t *testing.T) {
	c, err := New(Config{NodeID: "n1", Peers: testPeers(4), ReplicationFactor: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ownedHere, heldHere := 0, 0
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("db-%d", i)
		holders := c.Holders(name)
		if len(holders) != 2 {
			t.Fatalf("holders(%q): %d, want 2", name, len(holders))
		}
		if c.IsOwner(name) != (holders[0].ID == "n1") {
			t.Fatalf("IsOwner(%q) disagrees with Holders", name)
		}
		hold := false
		for _, h := range holders {
			if h.ID == "n1" {
				hold = true
			}
		}
		if c.Holds("n1", name) != hold {
			t.Fatalf("Holds(n1, %q) disagrees with Holders", name)
		}
		if c.IsOwner(name) {
			ownedHere++
		}
		if hold {
			heldHere++
		}
	}
	if ownedHere == 0 || heldHere <= ownedHere {
		t.Fatalf("placement degenerate: owned=%d held=%d", ownedHere, heldHere)
	}
	if c.ClientFor("n2") == nil {
		t.Error("ClientFor(n2) = nil, want a client")
	}
	if c.ClientFor("n1") != nil {
		t.Error("ClientFor(self) != nil")
	}
}

// TestProberDetectsDownAndRecovered drives the active failure detector:
// a peer that stops answering /readyz goes unhealthy within a few probe
// intervals and comes back when it answers again.
func TestProberDetectsDownAndRecovered(t *testing.T) {
	ts, ready := readyzStub(t)
	c, err := New(Config{
		NodeID: "n1",
		Peers: []Peer{
			{ID: "n1", URL: "http://127.0.0.1:1"}, // self; never dialed
			{ID: "n2", URL: ts.URL},
		},
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	loops := NewLoops(metrics.NewRegistry())
	c.Start(loops)
	defer loops.Stop()

	waitFor(t, "n2 probed healthy", func() bool {
		for _, ps := range c.Status() {
			if ps.ID == "n2" && !ps.LastProbe.IsZero() {
				return ps.Healthy
			}
		}
		return false
	})

	ready.Store(false)
	waitFor(t, "n2 marked down", func() bool { return !c.Healthy("n2") })

	ready.Store(true)
	waitFor(t, "n2 marked recovered", func() bool { return c.Healthy("n2") })

	if !c.Healthy("n1") {
		t.Error("a node must always be healthy to itself")
	}
}

// TestPassiveMarks: the router's failure feedback flips health without
// waiting for a probe, and unknown peers are ignored.
func TestPassiveMarks(t *testing.T) {
	c, err := New(Config{NodeID: "n1", Peers: testPeers(3)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !c.Healthy("n2") {
		t.Fatal("peers must start healthy")
	}
	c.MarkFailure("n2")
	if c.Healthy("n2") {
		t.Error("MarkFailure did not flip n2 down")
	}
	c.MarkSuccess("n2")
	if !c.Healthy("n2") {
		t.Error("MarkSuccess did not flip n2 back up")
	}
	c.MarkFailure("ghost") // must not panic or invent a peer
	if c.Healthy("ghost") {
		t.Error("unknown peer reported healthy")
	}
	c.MarkFailure("n1")
	if !c.Healthy("n1") {
		t.Error("self must stay healthy even after MarkFailure")
	}
}

// TestStopIdempotent: the runner's Stop must be safe to call twice and
// after the probers were started on it.
func TestStopIdempotent(t *testing.T) {
	ts, _ := readyzStub(t)
	c, err := New(Config{
		NodeID:        "n1",
		Peers:         []Peer{{ID: "n1", URL: "http://127.0.0.1:1"}, {ID: "n2", URL: ts.URL}},
		ProbeInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	loops := NewLoops(metrics.NewRegistry())
	c.Start(loops)
	loops.Stop()
	loops.Stop()
}

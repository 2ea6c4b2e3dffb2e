//go:build faultinject

package server

// Partition and replication chaos for cluster mode. The invariants under
// injected network faults mirror the single-node chaos contract: every
// fault surfaces as a typed HTTP error (never a hang or a non-JSON
// body), the cluster heals completely once injection stops (catch-up
// repairs anything the faults suppressed), and no goroutines leak.

import (
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"

	"ecrpq/internal/faultinject"
)

// clusterChaosSetup builds a converged 3-node cluster holding one
// database and returns it with the goroutine baseline (taken after the
// cluster's own long-lived goroutines — probers, shipper, catch-up —
// are running, so the leak check measures only request-scoped work).
func clusterChaosSetup(t *testing.T, rf int) (nodes []*testClusterNode, name string, gen uint64, baseline int) {
	t.Helper()
	nodes = newTestCluster(t, 3, rf, 3)
	name = nameOwnedBy(t, nodes[0].cl, "n1")
	owner := nodeByID(t, nodes, "n1")
	code, body, _ := httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/dbs/"+name), []byte(denseDBText(8)))
	if code != http.StatusOK {
		t.Fatalf("register: %d (%v)", code, body)
	}
	gen = uint64(body["generation"].(float64))
	waitHolds(t, nodes, nodes[0].cl, name, gen)
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	baseline = runtime.NumGoroutine()
	return nodes, name, gen, baseline
}

// TestChaosClusterPartition simulates a full network partition (every
// inter-node call fails at the "cluster.partition" site): reads on
// holders keep working from local copies, reads needing a forward and
// writes routed to the owner fail with typed errors, every peer is
// marked down — and once the partition heals, health, routing, and
// replication all recover with no goroutine leaks.
func TestChaosClusterPartition(t *testing.T) {
	nodes, name, _, baseline := clusterChaosSetup(t, 2)
	owner := nodeByID(t, nodes, "n1")

	faultinject.EnableSite("cluster.partition", faultinject.ModeError, 1.0)
	defer faultinject.Disable()

	// Probes now fail everywhere: every node flips its peers down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		allDown := true
		for _, nd := range nodes {
			for _, other := range nodes {
				if other != nd && nd.cl.Healthy(other.id) {
					allDown = false
				}
			}
		}
		if allDown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("partitioned peers never marked each other down")
		}
		time.Sleep(5 * time.Millisecond)
	}

	q, err := json.Marshal(map[string]any{"db": name, "query": quickQuery})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, nd := range nodes {
		code, out, _ := httpJSON(t, http.DefaultClient, "POST", nd.url("/v1/query"), q)
		if _, holds := nd.srv.dbs.get(name); holds {
			// A holder is self-sufficient: local reads ride out the partition.
			if code != http.StatusOK || out["sat"] != true {
				t.Errorf("holder %s during partition: %d sat=%v, want 200/true", nd.id, code, out["sat"])
			}
		} else {
			// A non-holder cannot reach any replica: typed 503, not a hang.
			if code != http.StatusServiceUnavailable || out["code"] != "NO_REPLICA" {
				t.Errorf("non-holder %s during partition: %d code=%v, want 503 NO_REPLICA", nd.id, code, out["code"])
			}
		}
	}

	// Writes through a non-owner refuse typed (the owner is unreachable).
	nonOwner := nodeByID(t, nodes, "n2")
	code, out, _ := httpJSON(t, noRedirect(), "POST", nonOwner.url("/v1/dbs/"+name), []byte(denseDBText(4)))
	if code != http.StatusServiceUnavailable || out["code"] != "OWNER_DOWN" {
		t.Errorf("write via non-owner during partition: %d code=%v, want 503 OWNER_DOWN", code, out["code"])
	}

	// Writes on the owner itself still commit (its copy is authoritative);
	// the pushes fail but catch-up will repair after the heal.
	code, body, _ := httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/dbs/"+name), []byte(denseDBText(10)))
	if code != http.StatusOK {
		t.Fatalf("write on owner during partition: %d (%v)", code, body)
	}
	newGen := uint64(body["generation"].(float64))

	// Heal. Peers recover, and the replicas converge to the write that
	// happened during the partition.
	faultinject.Disable()
	deadline = time.Now().Add(10 * time.Second)
	for {
		healed := true
		for _, nd := range nodes {
			for _, other := range nodes {
				if other != nd && !nd.cl.Healthy(other.id) {
					healed = false
				}
			}
		}
		if healed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peers never recovered after the partition healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitHolds(t, nodes, nodes[0].cl, name, newGen)
	for _, nd := range nodes {
		code, out, _ := httpJSON(t, http.DefaultClient, "POST", nd.url("/v1/query"), q)
		if code != http.StatusOK || out["sat"] != true {
			t.Errorf("query via %s after heal: %d sat=%v", nd.id, code, out["sat"])
		}
	}
	waitGoroutines(t, baseline)
}

// TestChaosReplicationLag freezes replication (push and catch-up both
// fail) so a replica serves behind the owner, and asserts the staleness
// contract: a cursor minted on the owner's newer generation gets 410
// STALE_CURSOR from the lagging replica — never a silently spliced page
// — and the lag drains once the faults lift.
func TestChaosReplicationLag(t *testing.T) {
	nodes, name, oldGen, baseline := clusterChaosSetup(t, 3)
	owner := nodeByID(t, nodes, "n1")
	replica := nodeByID(t, nodes, "n2")

	faultinject.EnableSite("cluster.replicate.send", faultinject.ModeError, 1.0)
	faultinject.EnableSite("cluster.catchup", faultinject.ModeError, 1.0)
	defer faultinject.Disable()

	// Replace the database on the owner: with replication frozen, the
	// replicas stay on the old generation.
	code, body, _ := httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/dbs/"+name), []byte(denseDBText(12)))
	if code != http.StatusOK {
		t.Fatalf("replace on owner: %d (%v)", code, body)
	}
	newGen := uint64(body["generation"].(float64))
	if newGen <= oldGen {
		t.Fatalf("replace did not advance the generation: %d -> %d", oldGen, newGen)
	}

	// Mint a cursor on the owner (new generation).
	enumReq := func(cursor string) []byte {
		b, err := json.Marshal(map[string]any{"db": name, "query": reachAllQuery, "limit": 5, "cursor": cursor})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	code, out, _ := httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/enumerate"), enumReq(""))
	if code != http.StatusOK {
		t.Fatalf("enumerate on owner: %d (%v)", code, out)
	}
	cursor, _ := out["next_cursor"].(string)
	if cursor == "" {
		t.Fatal("owner enumeration returned no cursor")
	}

	// The lagging replica must refuse the newer cursor, typed.
	if e, ok := replica.srv.dbs.get(name); !ok || e.gen != oldGen {
		t.Fatalf("replica not lagging as arranged (gen=%v, want %d)", e, oldGen)
	}
	code, out, _ = httpJSON(t, http.DefaultClient, "POST", replica.url("/v1/enumerate"), enumReq(cursor))
	if code != http.StatusGone || out["code"] != "STALE_CURSOR" {
		t.Fatalf("lagging replica answered %d code=%v, want 410 STALE_CURSOR", code, out["code"])
	}

	// Heal: catch-up drains the lag and the same cursor now works there.
	faultinject.Disable()
	waitHolds(t, nodes, nodes[0].cl, name, newGen)
	code, out, _ = httpJSON(t, http.DefaultClient, "POST", replica.url("/v1/enumerate"), enumReq(cursor))
	if code != http.StatusOK {
		t.Errorf("cursor on caught-up replica: %d (%v), want 200", code, out)
	}
	waitGoroutines(t, baseline)
}

// TestChaosMidReplicationCrash kills replication at the apply site (the
// replica's half of the protocol fails after the owner committed), then
// lifts the fault: catch-up must repair the replicas, generations must
// never regress, and the apply path must have been the one that healed.
func TestChaosMidReplicationCrash(t *testing.T) {
	nodes, name, oldGen, baseline := clusterChaosSetup(t, 3)
	owner := nodeByID(t, nodes, "n1")

	faultinject.EnableSite("cluster.replicate.apply", faultinject.ModeError, 1.0)
	defer faultinject.Disable()

	code, body, _ := httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/dbs/"+name), []byte(denseDBText(10)))
	if code != http.StatusOK {
		t.Fatalf("replace on owner: %d (%v)", code, body)
	}
	newGen := uint64(body["generation"].(float64))

	// Let the (failing) pushes happen; replicas must still be on the old
	// generation — never something in between, never regressed.
	time.Sleep(100 * time.Millisecond)
	for _, id := range []string{"n2", "n3"} {
		nd := nodeByID(t, nodes, id)
		if e, ok := nd.srv.dbs.get(name); !ok || (e.gen != oldGen && e.gen != newGen) {
			t.Fatalf("replica %s at unexpected generation %v (want %d or %d)", id, e, oldGen, newGen)
		}
	}

	faultinject.Disable()
	waitHolds(t, nodes, nodes[0].cl, name, newGen)
	repaired := uint64(0)
	for _, id := range []string{"n2", "n3"} {
		repaired += nodeByID(t, nodes, id).srv.mCatchupApplied.Value()
	}
	if repaired == 0 {
		t.Error("replicas converged but catch-up applied nothing — the repair path was not exercised")
	}
	waitGoroutines(t, baseline)
}

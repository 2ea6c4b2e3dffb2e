package main

// Multi-process cluster acceptance (EXPERIMENTS.md A11): three real
// ecrpqd processes form a cluster, a registered database replicates to
// every holder, aggregate read throughput across the three nodes beats
// a single node by ≥2× on the same workload, and a kill -9 of the
// owning process leaves reads flowing from the surviving replicas, with
// the survivors marking the dead peer down within a few probe periods.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecrpq/internal/client"
)

// Free-variable reachability over (a|b)*: every request does real
// evaluation work on the pool (free-variable answers are computed per
// request, only the compiled plan is cached), so throughput is bounded
// by the -workers 1 evaluation slot on each node — exactly what the
// scaling assertion needs to measure.
const acceptQuery = "alphabet a b\nfree x y\nx -[(a|b)*]-> y\n"

// startClusterNode launches one daemon with the cluster flags and waits
// for liveness. Probe and catch-up intervals are short so failure
// detection and replication repair land within test deadlines.
func startClusterNode(t *testing.T, bin, addr, nodeID, peers string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", addr,
		"-node-id", nodeID,
		"-peers", peers,
		"-replicas", "3",
		"-probe-interval", "150ms",
		"-catchup-interval", "300ms",
		"-workers", "1",
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting node %s: %v", nodeID, err)
	}
	c := client.New(client.Config{BaseURL: "http://" + addr, MaxRetries: 20, BaseDelay: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := c.Health(ctx); err != nil {
		_ = cmd.Process.Kill()
		t.Fatalf("node %s never became healthy: %v", nodeID, err)
	}
	return cmd
}

// clusterStatus decodes GET /v1/cluster from one node.
type clusterStatus struct {
	NodeID string `json:"node_id"`
	Peers  []struct {
		ID      string `json:"id"`
		Healthy bool   `json:"healthy"`
	} `json:"peers"`
	Databases []struct {
		Name       string   `json:"name"`
		Generation uint64   `json:"generation"`
		Owner      string   `json:"owner"`
		Holders    []string `json:"holders"`
	} `json:"databases"`
}

func getClusterStatus(t *testing.T, addr string) (clusterStatus, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+addr+"/v1/cluster", nil)
	if err != nil {
		return clusterStatus{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return clusterStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return clusterStatus{}, fmt.Errorf("GET /v1/cluster: %s", resp.Status)
	}
	var st clusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return clusterStatus{}, err
	}
	return st, nil
}

// readLoad runs `concurrency` query loops for `dur`, each goroutine
// pinned to one of `addrs` round-robin, and returns the number of
// successful reads. Failures are counted and reported by the caller.
func readLoad(t *testing.T, addrs []string, concurrency int, dur time.Duration) (ok, failed int64) {
	t.Helper()
	var okN, failN atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < concurrency; i++ {
		addr := addrs[i%len(addrs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := client.New(client.Config{BaseURL: "http://" + addr, MaxRetries: 0, BreakerThreshold: -1})
			for {
				select {
				case <-stop:
					return
				default:
				}
				qctx, qcancel := context.WithTimeout(context.Background(), 5*time.Second)
				resp, err := w.Query(qctx, client.QueryRequest{DB: "accept", Query: acceptQuery})
				qcancel()
				if err != nil || !resp.Sat {
					failN.Add(1)
					continue
				}
				okN.Add(1)
			}
		}()
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	return okN.Load(), failN.Load()
}

// TestClusterThroughputAndFailover is the multi-node acceptance run.
func TestClusterThroughputAndFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildDaemon(t)
	addrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	ids := []string{"n1", "n2", "n3"}
	var specs []string
	for i, id := range ids {
		specs = append(specs, id+"=http://"+addrs[i])
	}
	peers := strings.Join(specs, ",")

	procs := make(map[string]*exec.Cmd, 3)
	for i, id := range ids {
		procs[id] = startClusterNode(t, bin, addrs[i], id, peers)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p.Process != nil {
				_ = p.Process.Kill()
				_, _ = p.Process.Wait()
			}
		}
	})

	// Register through node 1 — the 307 write redirect (if n1 is not the
	// owner) is followed transparently by the HTTP client.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c0 := client.New(client.Config{BaseURL: "http://" + addrs[0]})
	// A 12-vertex ring makes the free-variable closure query cost ~15ms
	// of evaluation — two orders of magnitude above the HTTP overhead, so
	// throughput tracks the per-node evaluation slot, not the transport.
	// A node that probed a peer before that peer was listening holds it
	// unhealthy until the next probe; a write routed to such an owner is
	// refused 503 OWNER_DOWN — not performed — so it is safe to send again.
	var res *client.RegisterResult
	for start := time.Now(); ; time.Sleep(100 * time.Millisecond) {
		var err error
		if res, err = c0.RegisterDB(ctx, "accept", dbText(12)); err == nil {
			break
		}
		var se *client.StatusError
		if !errors.As(err, &se) || se.ErrCode != "OWNER_DOWN" || time.Since(start) > 10*time.Second {
			t.Fatalf("register: %v", err)
		}
	}
	gen := res.Generation

	// Wait until every node holds the database at the minted generation
	// (replication factor 3 = all nodes).
	deadline := time.Now().Add(15 * time.Second)
	for {
		held := 0
		for _, addr := range addrs {
			cl := client.New(client.Config{BaseURL: "http://" + addr, MaxRetries: 0})
			infos, err := cl.ListDBs(ctx)
			if err != nil {
				continue
			}
			for _, d := range infos {
				if d.Name == "accept" && d.Generation == gen {
					held++
				}
			}
		}
		if held == len(addrs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("database replicated to %d/%d nodes within the deadline", held, len(addrs))
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Warm every node's plan cache so neither phase pays first-compile.
	for _, addr := range addrs {
		w := client.New(client.Config{BaseURL: "http://" + addr})
		for i := 0; i < 3; i++ {
			if _, err := w.Query(ctx, client.QueryRequest{DB: "accept", Query: acceptQuery}); err != nil {
				t.Fatalf("warmup on %s: %v", addr, err)
			}
		}
	}

	// Phase A: all load on one node. Phase B: the same load spread over
	// all three. Each node evaluates with one worker, so the aggregate
	// should scale with the node count; ≥2× is the acceptance bar.
	const concurrency = 6
	const phase = 1500 * time.Millisecond
	singleOK, singleFail := readLoad(t, addrs[:1], concurrency, phase)
	if singleOK == 0 {
		t.Fatalf("single-node phase made no progress (%d failures)", singleFail)
	}
	tripleOK, tripleFail := readLoad(t, addrs, concurrency, phase)
	if singleFail != 0 || tripleFail != 0 {
		t.Errorf("read failures during throughput phases: single=%d triple=%d", singleFail, tripleFail)
	}
	t.Logf("throughput: single-node=%d, three-node=%d (%.2fx) over %v", singleOK, tripleOK, float64(tripleOK)/float64(singleOK), phase)
	// The scaling bar needs one core per daemon: on a starved host the
	// three processes time-share one CPU and no architecture could beat
	// 1x. The functional assertions below still run everywhere.
	if runtime.NumCPU() >= 3 {
		if tripleOK < 2*singleOK {
			t.Errorf("three-node throughput %d < 2x single-node %d", tripleOK, singleOK)
		}
	} else {
		t.Logf("skipping the 2x scaling assertion: only %d CPU(s) for 3 daemons", runtime.NumCPU())
	}

	// Failover: kill -9 the owning process and require reads to keep
	// succeeding on the survivors while their probes flip the dead peer
	// to down.
	st, err := getClusterStatus(t, addrs[0])
	if err != nil {
		t.Fatalf("cluster status: %v", err)
	}
	ownerID := ""
	for _, d := range st.Databases {
		if d.Name == "accept" {
			ownerID = d.Owner
		}
	}
	if ownerID == "" {
		t.Fatalf("no placement row for the database in %+v", st)
	}
	var survivors []string
	for i, id := range ids {
		if id != ownerID {
			survivors = append(survivors, addrs[i])
		}
	}
	if err := procs[ownerID].Process.Kill(); err != nil {
		t.Fatalf("kill -9 %s: %v", ownerID, err)
	}
	_, _ = procs[ownerID].Process.Wait()
	procs[ownerID].Process = nil

	// Reads on the survivors continue uninterrupted — each holds an
	// in-generation replica and serves it locally, so not a single
	// request may fail even before the probes notice the death.
	readCl := make([]*client.Client, len(survivors))
	for i, addr := range survivors {
		readCl[i] = client.New(client.Config{BaseURL: "http://" + addr, MaxRetries: 0, BreakerThreshold: -1})
	}
	detected := func() bool {
		for _, addr := range survivors {
			s, err := getClusterStatus(t, addr)
			if err != nil {
				return false
			}
			for _, p := range s.Peers {
				if p.ID == ownerID && p.Healthy {
					return false
				}
			}
		}
		return true
	}
	detectBy := time.Now().Add(5 * time.Second) // probe interval is 150ms
	for !detected() {
		for i, cl := range readCl {
			resp, err := cl.Query(ctx, client.QueryRequest{DB: "accept", Query: acceptQuery})
			if err != nil {
				t.Fatalf("read on survivor %s after owner kill: %v", survivors[i], err)
			}
			if !resp.Sat {
				t.Fatalf("read on survivor %s after owner kill: sat=false", survivors[i])
			}
		}
		if time.Now().After(detectBy) {
			t.Fatal("survivors never marked the killed owner down")
		}
	}

	// With the owner dead, a write routed through a survivor refuses with
	// the typed owner-down error rather than hanging or splitting brain.
	_, err = client.New(client.Config{BaseURL: "http://" + survivors[0], MaxRetries: 0, BreakerThreshold: -1}).
		RegisterDB(ctx, "accept", dbText(8))
	var se *client.StatusError
	if err == nil {
		t.Error("write through a survivor succeeded with the owner dead")
	} else if errors.As(err, &se) && (se.Code != http.StatusServiceUnavailable || se.ErrCode != "OWNER_DOWN") {
		t.Errorf("write with owner dead: %v, want 503 OWNER_DOWN", err)
	}

	// And reads are still fine afterwards.
	for i, cl := range readCl {
		resp, err := cl.Query(ctx, client.QueryRequest{DB: "accept", Query: acceptQuery})
		if err != nil || !resp.Sat {
			t.Errorf("final read on survivor %s: err=%v", survivors[i], err)
		}
	}
}

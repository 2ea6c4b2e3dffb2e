package server

// In-process multi-node cluster tests: several Servers behind httptest
// listeners, joined into one cluster. These cover the routing and
// replication contracts (redirect, forward, failover, staleness,
// catch-up) without spawning processes; the end-to-end multi-process
// path — real ecrpqd binaries, kill -9 — lives in cmd/ecrpqd's
// acceptance test.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"ecrpq/internal/cluster"
	"ecrpq/internal/graphdb"
)

// testClusterNode is one in-process cluster member.
type testClusterNode struct {
	id  string
	srv *Server
	ts  *httptest.Server
	cl  *cluster.Cluster
}

// url builds a full URL on this node.
func (n *testClusterNode) url(path string) string { return n.ts.URL + path }

// newTestCluster builds n nodes with fast probe/catch-up cadences and
// attaches the first `attach` of them to the cluster (attach < n leaves
// trailing nodes running single-node, for the bootstrap test). Every
// node's Server is shut down at cleanup.
func newTestCluster(t *testing.T, n, rf, attach int) []*testClusterNode {
	t.Helper()
	return newTestClusterCfg(t, Config{}, n, rf, attach)
}

// newTestClusterCfg is newTestCluster with every node built from cfg.
func newTestClusterCfg(t *testing.T, cfg Config, n, rf, attach int) []*testClusterNode {
	t.Helper()
	nodes := make([]*testClusterNode, n)
	peers := make([]cluster.Peer, n)
	for i := range nodes {
		srv := newTestServer(t, cfg)
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
	for i := 0; i < attach; i++ {
		attachTestCluster(t, nodes[i], peers, rf)
	}
	return nodes
}

// attachTestCluster joins one node to the cluster described by peers.
func attachTestCluster(t *testing.T, nd *testClusterNode, peers []cluster.Peer, rf int) {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		NodeID:            nd.id,
		Peers:             peers,
		ReplicationFactor: rf,
		ProbeInterval:     25 * time.Millisecond,
		CatchupInterval:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("cluster.New(%s): %v", nd.id, err)
	}
	if err := nd.srv.AttachCluster(c); err != nil {
		t.Fatalf("AttachCluster(%s): %v", nd.id, err)
	}
	nd.cl = c
}

// nodeByID finds a cluster member by peer ID.
func nodeByID(t *testing.T, nodes []*testClusterNode, id string) *testClusterNode {
	t.Helper()
	for _, nd := range nodes {
		if nd.id == id {
			return nd
		}
	}
	t.Fatalf("no node %q", id)
	return nil
}

// nameOwnedBy searches for a database name whose ring owner is ownerID.
func nameOwnedBy(t *testing.T, c *cluster.Cluster, ownerID string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		name := fmt.Sprintf("db-%d", i)
		if c.Owner(name).ID == ownerID {
			return name
		}
	}
	t.Fatalf("no name owned by %s in 100000 candidates", ownerID)
	return ""
}

// httpJSON performs one HTTP request against a live node and decodes the
// JSON response body.
func httpJSON(t *testing.T, cl *http.Client, method, url string, body []byte) (int, map[string]any, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("building %s %s: %v", method, url, err)
	}
	resp, err := cl.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("closing response body: %v", err)
		}
	}()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding body: %v", method, url, err)
	}
	return resp.StatusCode, out, resp.Header
}

// noRedirect is an http.Client that surfaces 307s instead of following.
func noRedirect() *http.Client {
	return &http.Client{CheckRedirect: func(req *http.Request, via []*http.Request) error {
		return http.ErrUseLastResponse
	}}
}

// mustParseDB parses graphdb text for programmatic registration.
func mustParseDB(t *testing.T, text string) *graphdb.DB {
	t.Helper()
	db, err := graphdb.ParseString(text)
	if err != nil {
		t.Fatalf("parsing test database: %v", err)
	}
	return db
}

// holdsAtGen reports whether node nd holds name at exactly gen.
func holdsAtGen(nd *testClusterNode, name string, gen uint64) bool {
	e, ok := nd.srv.dbs.get(name)
	return ok && e.gen == gen
}

// waitHolds polls until every holder of name has it at gen.
func waitHolds(t *testing.T, nodes []*testClusterNode, c *cluster.Cluster, name string, gen uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, h := range c.Holders(name) {
			if !holdsAtGen(nodeByID(t, nodes, h.ID), name, gen) {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replicas of %q did not converge to generation %d", name, gen)
}

// waitGoroutines polls until the goroutine count settles back to
// baseline. Idle HTTP keep-alive connections (2 goroutines each, parked
// on the shared DefaultTransport by the inter-node clients) are reaped
// each round so they cannot masquerade as leaks — or hide one.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
		g := runtime.NumGoroutine()
		if g <= baseline+4 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d now vs %d baseline", g, baseline)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterWriteRoutingAndReplication: a register sent to the wrong
// node 307-redirects to the owner (and a redirect-following client lands
// it transparently); the committed register is pushed to every holder
// with the owner's generation, and non-holders do not keep a copy.
func TestClusterWriteRoutingAndReplication(t *testing.T) {
	nodes := newTestCluster(t, 3, 2, 3)
	name := nameOwnedBy(t, nodes[0].cl, "n1")
	owner := nodeByID(t, nodes, "n1")
	other := nodeByID(t, nodes, "n2")
	if owner == other {
		t.Fatal("test needs a non-owner node")
	}

	// Raw 307 contract, visible to clients that do not auto-follow.
	code, body, hdr := httpJSON(t, noRedirect(), "POST", other.url("/v1/dbs/"+name), []byte(denseDBText(8)))
	if code != http.StatusTemporaryRedirect {
		t.Fatalf("register on non-owner: %d (%v), want 307", code, body)
	}
	wantLoc := owner.url("/v1/dbs/" + name)
	if loc := hdr.Get("Location"); loc != wantLoc {
		t.Fatalf("Location = %q, want %q", loc, wantLoc)
	}

	// A default client follows the 307, re-sending the body to the owner.
	code, body, _ = httpJSON(t, http.DefaultClient, "POST", other.url("/v1/dbs/"+name), []byte(denseDBText(8)))
	if code != http.StatusOK {
		t.Fatalf("register via redirect: %d (%v)", code, body)
	}
	gen := uint64(body["generation"].(float64))
	if gen == 0 {
		t.Fatal("register reported generation 0")
	}
	if _, ok := owner.srv.dbs.get(name); !ok {
		t.Fatal("owner does not hold the database after the redirected register")
	}

	waitHolds(t, nodes, nodes[0].cl, name, gen)
	for _, nd := range nodes {
		_, held := nd.srv.dbs.get(name)
		if want := nodes[0].cl.Owner(name).ID == nd.id || contains(nodes[0].cl.Holders(name), nd.id); held != want {
			t.Errorf("node %s holds=%t, want %t", nd.id, held, want)
		}
	}

	// Drop routes the same way and replicates.
	code, body, _ = httpJSON(t, http.DefaultClient, "DELETE", other.url("/v1/dbs/"+name), nil)
	if code != http.StatusOK {
		t.Fatalf("drop via redirect: %d (%v)", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		gone := true
		for _, nd := range nodes {
			if _, held := nd.srv.dbs.get(name); held {
				gone = false
			}
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drop did not replicate to all holders")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func contains(peers []cluster.Peer, id string) bool {
	for _, p := range peers {
		if p.ID == id {
			return true
		}
	}
	return false
}

// TestClusterReadForwarding: every node answers a query for a database
// only some of them hold — holders locally, non-holders by forwarding —
// and a forwarded request that still misses is a 404, not a loop.
func TestClusterReadForwarding(t *testing.T) {
	nodes := newTestCluster(t, 3, 2, 3)
	name := nameOwnedBy(t, nodes[0].cl, "n1")
	owner := nodeByID(t, nodes, "n1")

	code, body, _ := httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/dbs/"+name), []byte(denseDBText(8)))
	if code != http.StatusOK {
		t.Fatalf("register: %d (%v)", code, body)
	}
	waitHolds(t, nodes, nodes[0].cl, name, uint64(body["generation"].(float64)))

	q, err := json.Marshal(map[string]any{"db": name, "query": quickQuery})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, nd := range nodes {
		code, out, _ := httpJSON(t, http.DefaultClient, "POST", nd.url("/v1/query"), q)
		if code != http.StatusOK {
			t.Fatalf("query via %s: %d (%v)", nd.id, code, out)
		}
		if out["sat"] != true {
			t.Errorf("query via %s: sat=%v, want true", nd.id, out["sat"])
		}
	}
	// At least one node forwarded (the non-holder).
	forwarded := false
	for _, nd := range nodes {
		if nd.srv.mForwards.Value() > 0 {
			forwarded = true
		}
	}
	if !forwarded {
		t.Error("no node recorded a forward; the non-holder served a database it does not have")
	}

	// Loop guard: a request already marked forwarded must not be relayed
	// again — a miss is a definitive 404.
	missing, err := json.Marshal(map[string]any{"db": "nowhere", "query": quickQuery, "fwd": true})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	code, out, _ := httpJSON(t, http.DefaultClient, "POST", nodes[0].url("/v1/query"), missing)
	if code != http.StatusNotFound {
		t.Fatalf("forwarded miss: %d (%v), want 404", code, out)
	}
}

// TestClusterReadFailover: killing the owner leaves reads succeeding from
// the surviving replica (served via forward from a non-holder), while
// writes fail fast with the typed OWNER_DOWN refusal.
func TestClusterReadFailover(t *testing.T) {
	nodes := newTestCluster(t, 3, 2, 3)
	name := nameOwnedBy(t, nodes[0].cl, "n1")
	owner := nodeByID(t, nodes, "n1")

	code, body, _ := httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/dbs/"+name), []byte(denseDBText(8)))
	if code != http.StatusOK {
		t.Fatalf("register: %d (%v)", code, body)
	}
	waitHolds(t, nodes, nodes[0].cl, name, uint64(body["generation"].(float64)))

	// Kill the owner's listener. The survivors' probers flip it down
	// within a probe interval or two; poll until both see it.
	owner.ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		down := true
		for _, nd := range nodes {
			if nd == owner {
				continue
			}
			if nd.cl.Healthy("n1") {
				down = false
			}
		}
		if down {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never marked the killed owner down")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Reads keep working on every survivor: the replica serves locally,
	// the non-holder forwards around the corpse.
	q, err := json.Marshal(map[string]any{"db": name, "query": quickQuery})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, nd := range nodes {
		if nd == owner {
			continue
		}
		code, out, _ := httpJSON(t, http.DefaultClient, "POST", nd.url("/v1/query"), q)
		if code != http.StatusOK {
			t.Fatalf("query via %s after owner death: %d (%v)", nd.id, code, out)
		}
		if out["sat"] != true {
			t.Errorf("query via %s after owner death: sat=%v, want true", nd.id, out["sat"])
		}
	}

	// Writes need the single writer; with it gone they refuse typed.
	survivor := nodeByID(t, nodes, "n2")
	code, out, _ := httpJSON(t, noRedirect(), "POST", survivor.url("/v1/dbs/"+name), []byte(denseDBText(4)))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("write with owner down: %d (%v), want 503", code, out)
	}
	if out["code"] != "OWNER_DOWN" {
		t.Errorf("write with owner down: code=%v, want OWNER_DOWN", out["code"])
	}
}

// TestClusterStaleCursorAcrossNodes: a cursor minted on one holder is
// valid on another holder at the same generation, and a re-registration
// replicated cluster-wide invalidates it everywhere with the same 410
// STALE_CURSOR the single-node contract pins.
func TestClusterStaleCursorAcrossNodes(t *testing.T) {
	nodes := newTestCluster(t, 3, 3, 3) // RF 3: every node holds every db
	name := nameOwnedBy(t, nodes[0].cl, "n1")
	owner := nodeByID(t, nodes, "n1")

	code, body, _ := httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/dbs/"+name), []byte(denseDBText(10)))
	if code != http.StatusOK {
		t.Fatalf("register: %d (%v)", code, body)
	}
	waitHolds(t, nodes, nodes[0].cl, name, uint64(body["generation"].(float64)))

	enumReq := func(cursor string) []byte {
		b, err := json.Marshal(map[string]any{
			"db": name, "query": reachAllQuery, "limit": 5, "cursor": cursor,
		})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}

	// Page 1 on n2, page 2 with the same cursor on n3: deterministic
	// enumeration over replicated snapshots makes the hand-off exact.
	code, out, _ := httpJSON(t, http.DefaultClient, "POST", nodes[1].url("/v1/enumerate"), enumReq(""))
	if code != http.StatusOK {
		t.Fatalf("enumerate page 1 via n2: %d (%v)", code, out)
	}
	cursor, _ := out["next_cursor"].(string)
	if cursor == "" {
		t.Fatal("page 1 returned no cursor; test needs a multi-page answer set")
	}
	page1 := fmt.Sprint(out["answers"])
	code, out, _ = httpJSON(t, http.DefaultClient, "POST", nodes[2].url("/v1/enumerate"), enumReq(cursor))
	if code != http.StatusOK {
		t.Fatalf("enumerate page 2 via n3: %d (%v)", code, out)
	}
	if fmt.Sprint(out["answers"]) == page1 {
		t.Error("page 2 repeated page 1: cursor hand-off between replicas is broken")
	}

	// Replace the database; once the new generation replicates, the old
	// cursor is refused on a node that did NOT mint it.
	code, body, _ = httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/dbs/"+name), []byte(denseDBText(12)))
	if code != http.StatusOK {
		t.Fatalf("re-register: %d (%v)", code, body)
	}
	waitHolds(t, nodes, nodes[0].cl, name, uint64(body["generation"].(float64)))

	code, out, _ = httpJSON(t, http.DefaultClient, "POST", nodes[2].url("/v1/enumerate"), enumReq(cursor))
	if code != http.StatusGone {
		t.Fatalf("stale cursor on replica: %d (%v), want 410", code, out)
	}
	if out["code"] != "STALE_CURSOR" {
		t.Errorf("stale cursor on replica: code=%v, want STALE_CURSOR", out["code"])
	}
}

// TestClusterCatchupBootstrap: a node that joins the cluster after a
// database was registered (so it missed the push) converges via the
// pull-based catch-up loop, with the owner's generation intact.
func TestClusterCatchupBootstrap(t *testing.T) {
	nodes := newTestCluster(t, 2, 2, 1) // n2 exists but is not attached yet
	name := nameOwnedBy(t, nodes[0].cl, "n1")
	owner := nodeByID(t, nodes, "n1")

	// n2's server is still single-node: the push lands on /v1/replicate
	// which refuses (404), so only the owner holds the database.
	code, body, _ := httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/dbs/"+name), []byte(denseDBText(8)))
	if code != http.StatusOK {
		t.Fatalf("register: %d (%v)", code, body)
	}
	gen := uint64(body["generation"].(float64))

	// The push is async: wait until the shipper has tried (and failed,
	// n2 not being in cluster mode yet) before n2 joins, so convergence
	// can only come from catch-up.
	shipDeadline := time.Now().Add(10 * time.Second)
	for owner.srv.mShipErrors.Value() == 0 {
		if time.Now().After(shipDeadline) {
			t.Fatal("push to the unattached node never failed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	late := nodes[1]
	peers := []cluster.Peer{
		{ID: "n1", URL: nodes[0].ts.URL},
		{ID: "n2", URL: nodes[1].ts.URL},
	}
	attachTestCluster(t, late, peers, 2)

	deadline := time.Now().Add(10 * time.Second)
	for !holdsAtGen(late, name, gen) {
		if time.Now().After(deadline) {
			t.Fatalf("late joiner never caught up to %q generation %d", name, gen)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if late.srv.mCatchupApplied.Value() == 0 {
		t.Error("late joiner converged without the catch-up path (push should have been impossible)")
	}
}

// TestClusterStatusEndpoint: /v1/cluster reports membership, health, and
// the placement of locally held databases; non-cluster servers 404 the
// cluster-only endpoints.
func TestClusterStatusEndpoint(t *testing.T) {
	nodes := newTestCluster(t, 3, 2, 3)
	name := nameOwnedBy(t, nodes[0].cl, "n1")
	owner := nodeByID(t, nodes, "n1")
	code, body, _ := httpJSON(t, http.DefaultClient, "POST", owner.url("/v1/dbs/"+name), []byte(denseDBText(6)))
	if code != http.StatusOK {
		t.Fatalf("register: %d (%v)", code, body)
	}

	code, out, _ := httpJSON(t, http.DefaultClient, "GET", owner.url("/v1/cluster"), nil)
	if code != http.StatusOK {
		t.Fatalf("/v1/cluster: %d (%v)", code, out)
	}
	if out["node_id"] != "n1" {
		t.Errorf("node_id=%v, want n1", out["node_id"])
	}
	peersOut, ok := out["peers"].([]any)
	if !ok || len(peersOut) != 3 {
		t.Fatalf("peers=%v, want 3 entries", out["peers"])
	}
	dbsOut, ok := out["databases"].([]any)
	if !ok || len(dbsOut) == 0 {
		t.Fatalf("databases=%v, want the registered db", out["databases"])
	}
	row := dbsOut[0].(map[string]any)
	if row["name"] != name || row["owner"] != "n1" {
		t.Errorf("placement row=%v, want name=%s owner=n1", row, name)
	}

	single := newTestServer(t, Config{})
	for _, path := range []string{"/v1/cluster"} {
		rec, _ := doJSON(t, single, "GET", path, nil)
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s on single-node server: %d, want 404", path, rec.Code)
		}
	}
}

// TestClusterRegisterDBOwnershipCheck: the programmatic preload path
// refuses names this node does not own — a preload on the wrong node
// would mint generations outside the single-writer discipline.
func TestClusterRegisterDBOwnershipCheck(t *testing.T) {
	nodes := newTestCluster(t, 3, 2, 3)
	notMine := nameOwnedBy(t, nodes[0].cl, "n2")
	db := mustParseDB(t, denseDBText(4))
	if err := nodes[0].srv.RegisterDB(notMine, db); err == nil {
		t.Error("RegisterDB on a non-owner: want error, got nil")
	}
	mine := nameOwnedBy(t, nodes[0].cl, "n1")
	if err := nodes[0].srv.RegisterDB(mine, db); err != nil {
		t.Errorf("RegisterDB on the owner: %v", err)
	}
}

// nonHolder returns a node that does not hold name (rf < cluster size).
func nonHolder(t *testing.T, nodes []*testClusterNode, name string) *testClusterNode {
	t.Helper()
	holders := nodes[0].cl.Holders(name)
	for _, nd := range nodes {
		if !contains(holders, nd.id) {
			return nd
		}
	}
	t.Fatalf("every node holds %q", name)
	return nil
}

// TestClusterForwardKeepsEveryField: a forwarded read relays the holder's
// success body as it is. Decoding it into the client's response types and
// re-encoding dropped whatever those types did not know — a degraded,
// db-independent satisfiability answer reached the caller of a non-holder
// looking like a real sat for that database, and a forwarded explain lost
// its stats_age_seconds.
func TestClusterForwardKeepsEveryField(t *testing.T) {
	t.Run("degraded query", func(t *testing.T) {
		// Below the admission floor everywhere: holders can only answer
		// through the satisfiability fallback. The non-holder forwards before
		// it reserves anything, so its own budget does not come into it.
		nodes := newTestClusterCfg(t, Config{
			MemBudgetBytes: 32 << 10, QueryReserveBytes: 64 << 10, DegradedFallback: true,
		}, 3, 2, 3)
		name := nameOwnedBy(t, nodes[0].cl, "n1")
		if err := nodeByID(t, nodes, "n1").srv.RegisterDB(name, mustParseDB(t, "alphabet a b\nu a v\nv b w\n")); err != nil {
			t.Fatal(err)
		}
		waitHolds(t, nodes, nodes[0].cl, name, 1)
		via := nonHolder(t, nodes, name)
		body, err := json.Marshal(map[string]any{"db": name, "query": quickQuery})
		if err != nil {
			t.Fatal(err)
		}
		code, out, _ := httpJSON(t, http.DefaultClient, "POST", via.url("/v1/query"), body)
		if code != http.StatusOK {
			t.Fatalf("query via non-holder %s: %d (%v)", via.id, code, out)
		}
		if via.srv.mForwards.Value() != 1 {
			t.Fatalf("non-holder recorded %d forwards, want 1", via.srv.mForwards.Value())
		}
		if out["degraded"] != true || out["degraded_reason"] != "admission" || out["strategy"] != "satisfiability" {
			t.Errorf("degraded answer lost its marking on the way through %s: %v", via.id, out)
		}
	})
	t.Run("explain", func(t *testing.T) {
		nodes := newTestCluster(t, 3, 2, 3)
		name := nameOwnedBy(t, nodes[0].cl, "n1")
		if err := nodeByID(t, nodes, "n1").srv.RegisterDB(name, mustParseDB(t, denseDBText(8))); err != nil {
			t.Fatal(err)
		}
		waitHolds(t, nodes, nodes[0].cl, name, 1)
		via := nonHolder(t, nodes, name)
		body, err := json.Marshal(map[string]any{"db": name, "query": quickQuery})
		if err != nil {
			t.Fatal(err)
		}
		code, out, _ := httpJSON(t, http.DefaultClient, "POST", via.url("/v1/explain"), body)
		if code != http.StatusOK {
			t.Fatalf("explain via non-holder %s: %d (%v)", via.id, code, out)
		}
		if age, _ := out["stats_age_seconds"].(float64); age <= 0 {
			t.Errorf("forwarded explain has stats_age_seconds=%v, want the holder's positive age: %v", out["stats_age_seconds"], out)
		}
	})
}

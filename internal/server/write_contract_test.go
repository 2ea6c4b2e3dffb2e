package server

// The write contract: a database enters the registry through one function
// (install) and leaves through one (remove), so whichever caller builds the
// request — the HTTP handlers, RegisterDB, the replication apply, the restore
// loop, the scrub's memory heal, a catch-up round — the same post-conditions
// must hold. The tables below send every way of installing through every
// situation a name can be in, and every way of dropping, and check them all
// the same way. The two regression tests at the end are the defects the
// hand-copied sequences had drifted into.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ecrpq/internal/client"
	"ecrpq/internal/cluster"
	"ecrpq/internal/faultinject"
	"ecrpq/internal/integrity"
	"ecrpq/internal/persist"
	"ecrpq/internal/stats"
)

const (
	// contractDB is owned by the stub ("n2") in ownerStub's two-node ring.
	contractDB = "contract"
	priorGen   = 5 // the generation a name is at before the write under test
)

var (
	priorContent = denseDBText(6)
	nextContent  = denseDBText(7)
)

// writeEnv is one server under the write contract, with the handles the
// post-conditions are read through.
type writeEnv struct {
	s   *Server
	dir string // the attached store's directory, "" while none is attached
	st  *persist.Store
	// captured is the entry the scrub examined (heal rows only).
	captured *dbEntry
}

// newWriteEnv builds a server that owns every name in a one-node cluster
// whose loops are not running, so what install and remove queue for
// replication stays in shipCh to be counted.
func newWriteEnv(t *testing.T, withStore bool) *writeEnv {
	t.Helper()
	env := &writeEnv{s: newTestServer(t, Config{})}
	if withStore {
		env.attach(t, t.TempDir())
	}
	c, err := cluster.New(cluster.Config{NodeID: "n1", Peers: []cluster.Peer{{ID: "n1", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	env.s.clu.Store(c)
	return env
}

func (env *writeEnv) attach(t *testing.T, dir string) {
	t.Helper()
	env.dir, env.st = dir, openStore(t, dir)
	t.Cleanup(func() { env.st.Close() })
	if _, err := env.s.AttachStore(env.st); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
}

// snapshotOf renders content as the snapshot its owner would write at gen,
// catalog and digest in the footer.
func snapshotOf(t *testing.T, content string, gen uint64) persist.Snapshot {
	t.Helper()
	db := mustParseDB(t, content)
	cat, err := stats.Compute(context.Background(), db, gen)
	if err != nil {
		t.Fatal(err)
	}
	return persist.Snapshot{DB: db, Stats: cat.Encode(), Digest: integrity.Compute(db, gen).Encode()}
}

// record renders content as the replication record its owner would ship.
func record(t *testing.T, name, content string, gen uint64) client.ReplicateRecord {
	t.Helper()
	return client.ReplicateRecord{Op: "register", Name: name, Gen: gen, UnixNano: time.Now().UnixNano(),
		Snapshot: snapshotOf(t, content, gen).Encode()}
}

func (env *writeEnv) replicate(t *testing.T, content string, gen uint64) error {
	t.Helper()
	_, _, err := env.s.applyReplicated(context.Background(), record(t, contractDB, content, gen))
	return err
}

// materialise runs a reduction query, leaving a materialisation keyed by the
// live generation in the plan cache.
func (env *writeEnv) materialise(t *testing.T) {
	t.Helper()
	rec, _ := doJSON(t, env.s, "POST", "/v1/query", map[string]any{"db": contractDB, "query": slowQuery, "strategy": "reduction"})
	if rec.Code != http.StatusOK {
		t.Fatalf("materialising query: %d %s", rec.Code, rec.Body.String())
	}
}

func (env *writeEnv) evictions() uint64 {
	env.s.dbCacheMu.Lock()
	defer env.s.dbCacheMu.Unlock()
	if c, ok := env.s.dbCache[contractDB]; ok {
		return c.evictions
	}
	return 0
}

// onDisk reopens the data directory the way a restart would and returns what
// it holds for the contract database.
func (env *writeEnv) onDisk(t *testing.T) (persist.Entry, bool) {
	t.Helper()
	env.st.Close()
	st, err := persist.Open(env.dir)
	if err != nil {
		t.Fatalf("reopening %s: %v", env.dir, err)
	}
	defer st.Close()
	for _, e := range st.TakeEntries() {
		if e.Name == contractDB {
			return e, true
		}
	}
	return persist.Entry{}, false
}

// installVia is one way a database reaches install.
type installVia struct {
	name string
	// mints: this node chooses the generation, so it is the one that ships.
	mints bool
	// store: the server has its store attached before the write (restore is
	// the write that attaches it).
	store bool
	// heal: the write re-installs the captured generation from disk, so it
	// only ever applies to that generation while it is live.
	heal bool
	do   func(t *testing.T, env *writeEnv, content string, gen uint64) error
}

var installWays = []installVia{
	{name: "http register", mints: true, store: true, do: func(t *testing.T, env *writeEnv, content string, _ uint64) error {
		if rec, _ := doJSON(t, env.s, "POST", "/v1/dbs/"+contractDB, content); rec.Code != http.StatusOK {
			return fmt.Errorf("%d %s", rec.Code, rec.Body.String())
		}
		return nil
	}},
	{name: "RegisterDB", mints: true, store: true, do: func(t *testing.T, env *writeEnv, content string, _ uint64) error {
		return env.s.RegisterDB(contractDB, mustParseDB(t, content))
	}},
	{name: "replicated register", store: true, do: func(t *testing.T, env *writeEnv, content string, gen uint64) error {
		return env.replicate(t, content, gen)
	}},
	{name: "restore", do: func(t *testing.T, env *writeEnv, content string, gen uint64) error {
		dir := t.TempDir()
		st := openStore(t, dir)
		snap := snapshotOf(t, content, gen)
		if err := st.AppendRegisterWithSidecars(context.Background(), contractDB, gen, time.Now(), snap.DB, snap.Stats, snap.Digest); err != nil {
			t.Fatal(err)
		}
		st.Close()
		env.attach(t, dir)
		return nil
	}},
	{name: "scrub heal", store: true, heal: true, do: func(t *testing.T, env *writeEnv, _ string, _ uint64) error {
		env.s.scrubDB(context.Background(), env.captured)
		return nil
	}},
}

// situation is the state a name is in when the write arrives, and the
// generation a write that does not mint its own carries.
type situation struct {
	name        string
	prior       bool // registered at priorGen, with a materialisation
	quarantined bool
	gen         uint64
}

var situations = []situation{
	{name: "fresh name", gen: priorGen},
	{name: "replacement", prior: true, gen: priorGen + 2},
	{name: "same-generation repair of a quarantined copy", prior: true, quarantined: true, gen: priorGen},
	{name: "stale record", prior: true, gen: priorGen - 2},
}

// arrange puts the contract database into sit. A heal's target is the
// generation the scrub examined: the live one when it repairs, otherwise one
// that has since been replaced (or, for a fresh name, dropped).
func (env *writeEnv) arrange(t *testing.T, via installVia, sit situation) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	capture := func(gen uint64) {
		must(env.replicate(t, priorContent, gen))
		corruptMemory(t, env.s, contractDB)
		env.captured, _ = env.s.dbs.get(contractDB)
	}
	switch {
	case via.heal && !sit.prior:
		capture(priorGen)
		_, err := env.s.remove(context.Background(), fromOwner, contractDB, priorGen)
		must(err)
	case via.heal && !sit.quarantined:
		capture(priorGen - 2)
		must(env.replicate(t, priorContent, priorGen))
		env.materialise(t)
	case via.heal:
		capture(priorGen)
		env.materialise(t) // built over the corrupt copy
		env.s.quarantine(contractDB, "write contract", true)
	case sit.prior:
		must(env.replicate(t, priorContent, priorGen))
		env.materialise(t)
		if sit.quarantined {
			env.s.quarantine(contractDB, "write contract", true)
		}
	}
}

func TestWriteContractInstall(t *testing.T) {
	for _, via := range installWays {
		for _, sit := range situations {
			t.Run(via.name+"/"+sit.name, func(t *testing.T) {
				env := newWriteEnv(t, via.store)
				env.arrange(t, via, sit)
				before, held := env.s.dbs.get(contractDB)
				evicted, queued, repairs := env.evictions(), len(env.s.shipCh), env.s.mRepairs.Value()

				content, wantGen := nextContent, sit.gen
				applies := !sit.prior || sit.gen > priorGen || sit.quarantined
				switch {
				case via.mints:
					applies, wantGen = true, priorGen+1
					if !sit.prior {
						wantGen = 1
					}
				case via.heal:
					applies, content, wantGen = sit.quarantined, priorContent, priorGen
				}
				if err := via.do(t, env, content, sit.gen); err != nil {
					t.Fatalf("write failed: %v", err)
				}

				after, heldAfter := env.s.dbs.get(contractDB)
				if !applies {
					if heldAfter != held || after != before {
						t.Fatalf("a write that must not apply changed the entry: %+v → %+v", before, after)
					}
					if got := env.evictions(); got != evicted {
						t.Errorf("evictions %d → %d although nothing was replaced", evicted, got)
					}
					if held && env.s.cache.InvalidateGeneration(before.gen) == 0 {
						t.Error("the live generation's materialisation is gone although nothing was replaced")
					}
					if got := len(env.s.shipCh); got != queued {
						t.Errorf("%d record(s) queued for shipping by a write that did not apply", got-queued)
					}
					return
				}

				if !heldAfter || after.gen != wantGen {
					t.Fatalf("entry after the write: %+v, want generation %d", after, wantGen)
				}
				if want := integrity.Compute(mustParseDB(t, content), wantGen); after.digest != want {
					t.Errorf("entry digest %v, want %v (the content at its generation)", after.digest, want)
				}
				if got, ok := integrity.Verify(after.db, after.digest); !ok {
					t.Errorf("installed content digests to %v, entry says %v", got, after.digest)
				}
				if after.stats == nil || after.stats.Generation != wantGen {
					t.Errorf("entry statistics %+v, want a catalog at generation %d", after.stats, wantGen)
				}
				if after.quar != nil {
					t.Errorf("entry is quarantined after a verified install: %q", after.quar.reason)
				}
				if len(env.s.quarantinedEntries()) != 0 {
					t.Errorf("quarantine view still lists %d entr(ies)", len(env.s.quarantinedEntries()))
				}
				if held {
					if n := env.s.cache.InvalidateGeneration(before.gen); n != 0 {
						t.Errorf("%d materialisation(s) of the replaced generation %d survived", n, before.gen)
					}
					if got := env.evictions(); got <= evicted {
						t.Errorf("evictions for %q stayed at %d: the replaced generation's materialisations were not invalidated, or not attributed", contractDB, got)
					}
				}
				wantRepairs := repairs
				switch {
				case via.heal:
					wantRepairs += 2 // the quarantine lifted, and the heal itself
				case sit.quarantined && !via.mints:
					wantRepairs++ // a client's replacement supersedes, it does not repair
				}
				if got := env.s.mRepairs.Value(); got != wantRepairs {
					t.Errorf("repairs counter %d → %d, want %d", repairs, got, wantRepairs)
				}
				wantQueued := queued
				if via.mints {
					wantQueued++
				}
				if got := len(env.s.shipCh); got != wantQueued {
					t.Errorf("ship queue %d → %d, want %d (only the node that minted the generation ships)", queued, got, wantQueued)
				}
				disk, ok := env.onDisk(t)
				if !ok || disk.Gen != after.gen {
					t.Fatalf("after a restart the directory holds %+v (found=%t), memory holds generation %d", disk, ok, after.gen)
				}
				if dg, err := integrity.Decode(disk.Digest); err != nil || dg != after.digest {
					t.Errorf("digest on disk %v (%v), in memory %v", dg, err, after.digest)
				}
				if got, ok := integrity.Verify(disk.DB, after.digest); !ok {
					t.Errorf("snapshot on disk digests to %v, memory says %v", got, after.digest)
				}
				if cat, err := stats.Decode(disk.Stats); err != nil || cat.Generation != after.gen {
					t.Errorf("statistics on disk %+v (%v), want a catalog at generation %d", cat, err, after.gen)
				}
			})
		}
	}
}

// removeVia is one way a database reaches remove.
type removeVia struct {
	name  string
	ships bool
	do    func(t *testing.T, env *writeEnv, owner *ownerStub) error
}

var removeWays = []removeVia{
	{name: "http drop", ships: true, do: func(t *testing.T, env *writeEnv, _ *ownerStub) error {
		if rec, _ := doJSON(t, env.s, "DELETE", "/v1/dbs/"+contractDB, nil); rec.Code != http.StatusOK {
			return fmt.Errorf("%d %s", rec.Code, rec.Body.String())
		}
		return nil
	}},
	{name: "replicated drop", do: func(t *testing.T, env *writeEnv, _ *ownerStub) error {
		_, _, err := env.s.applyReplicated(context.Background(), client.ReplicateRecord{Op: "drop", Name: contractDB, Gen: priorGen})
		return err
	}},
	{name: "catch-up absent", do: func(t *testing.T, env *writeEnv, owner *ownerStub) error {
		// The owner no longer has the name: the round must drop it here.
		env.s.catchupOnce(context.Background(), owner.cluster(t))
		return nil
	}},
}

func TestWriteContractRemove(t *testing.T) {
	for _, via := range removeWays {
		for _, quarantined := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/quarantined=%t", via.name, quarantined), func(t *testing.T) {
				env := newWriteEnv(t, true)
				owner := newOwnerStub(t)
				env.arrange(t, installVia{}, situation{prior: true, quarantined: quarantined})
				evicted, queued, repairs := env.evictions(), len(env.s.shipCh), env.s.mRepairs.Value()

				if err := via.do(t, env, owner); err != nil {
					t.Fatalf("drop failed: %v", err)
				}

				if e, held := env.s.dbs.get(contractDB); held {
					t.Fatalf("still registered after the drop: %+v", e)
				}
				if n := env.s.cache.InvalidateGeneration(priorGen); n != 0 {
					t.Errorf("%d materialisation(s) of the dropped generation survived", n)
				}
				if got := env.evictions(); got <= evicted {
					t.Errorf("evictions for %q stayed at %d: the dropped generation's materialisations were not invalidated, or not attributed", contractDB, got)
				}
				if q := env.s.quarantinedEntries(); len(q) != 0 {
					t.Errorf("STALE: dropped database is still in the quarantine view: %v", q[0].quar.reason)
				}
				if _, out := doJSON(t, env.s, "GET", "/healthz", nil); out["quarantined"] != nil {
					t.Errorf("/healthz is degraded by a database nobody holds: %v", out["quarantined"])
				}
				if got := env.s.mRepairs.Value(); got != repairs {
					t.Errorf("a drop counted as %d repair(s)", got-repairs)
				}
				wantQueued := queued
				if via.ships {
					wantQueued++
				}
				if got := len(env.s.shipCh); got != wantQueued {
					t.Errorf("ship queue %d → %d, want %d", queued, got, wantQueued)
				}
				if disk, ok := env.onDisk(t); ok {
					t.Errorf("after a restart the directory still holds the dropped database: %+v", disk)
				}
			})
		}
	}
}

// TestWriteContractPersistenceFault: when the journal append fails, the
// write did not happen — same entry, same quarantine state, same
// materialisations, nothing shipped — whichever journaling caller made it.
func TestWriteContractPersistenceFault(t *testing.T) {
	type write struct {
		name string
		do   func(t *testing.T, env *writeEnv) error
	}
	var writes []write
	for _, via := range installWays {
		if via.store && !via.heal {
			writes = append(writes, write{via.name, func(t *testing.T, env *writeEnv) error { return via.do(t, env, nextContent, priorGen+2) }})
		}
	}
	for _, via := range removeWays[:2] {
		writes = append(writes, write{via.name, func(t *testing.T, env *writeEnv) error { return via.do(t, env, nil) }})
	}
	for _, w := range writes {
		t.Run(w.name, func(t *testing.T) {
			env := newWriteEnv(t, true)
			env.arrange(t, installVia{}, situation{prior: true, quarantined: true})
			before, _ := env.s.dbs.get(contractDB)
			evicted, queued := env.evictions(), len(env.s.shipCh)

			armFault(t, "persist.journal.append")
			err := w.do(t, env)
			faultinject.Disable()
			if err == nil {
				t.Fatal("the write succeeded although its journal append failed")
			}

			if after, _ := env.s.dbs.get(contractDB); after != before {
				t.Errorf("memory changed by a write that was not durable: %+v → %+v", before, after)
			}
			if got := env.evictions(); got != evicted {
				t.Errorf("evictions %d → %d", evicted, got)
			}
			if got := len(env.s.shipCh); got != queued {
				t.Errorf("%d record(s) shipped for a write that did not happen", got-queued)
			}
			if disk, ok := env.onDisk(t); !ok || disk.Gen != before.gen {
				t.Errorf("after a restart the directory holds %+v (found=%t), want generation %d untouched", disk, ok, before.gen)
			}
		})
	}
}

// armFault makes site fail every check until faultinject.Disable, and skips
// the test in a build without -tags faultinject, where arming does nothing.
func armFault(t *testing.T, site string) {
	t.Helper()
	faultinject.EnableSite(site, faultinject.ModeError, 1.0)
	if !faultinject.Enabled() {
		t.Skip("needs -tags faultinject")
	}
	t.Cleanup(faultinject.Disable)
}

// ownerStub is the ring owner of every name, as a peer that holds nothing:
// it is always ready, records the catch-up pulls it receives, answers each
// with Absent for every name the caller reported (after hold, when a test
// plants one, is closed or the caller gives up), and serves whatever
// /v1/integrity answer a test plants.
type ownerStub struct {
	ts *httptest.Server

	mu        sync.Mutex
	pulls     []client.PullRequest
	hold      chan struct{}
	integrity func(name string) client.IntegrityInfo
}

func newOwnerStub(t *testing.T) *ownerStub {
	t.Helper()
	o := &ownerStub{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/replicate/pull", func(w http.ResponseWriter, r *http.Request) {
		var req client.PullRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		o.mu.Lock()
		o.pulls = append(o.pulls, req)
		hold := o.hold
		o.mu.Unlock()
		if hold != nil {
			select {
			case <-hold:
			case <-r.Context().Done():
			}
		}
		resp := client.PullResponse{Records: []client.ReplicateRecord{}}
		for name := range req.Have {
			resp.Absent = append(resp.Absent, name)
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/integrity/{name}", func(w http.ResponseWriter, r *http.Request) {
		o.mu.Lock()
		answer := o.integrity
		o.mu.Unlock()
		writeJSON(w, http.StatusOK, answer(r.PathValue("name")))
	})
	o.ts = httptest.NewServer(mux)
	t.Cleanup(o.ts.Close)
	return o
}

// cluster is the caller's view: a two-node ring in which the stub is the
// only other member and owns contractDB. Nothing runs on it until a test
// attaches it, and then at a fast cadence.
func (o *ownerStub) cluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{NodeID: "n1", ReplicationFactor: 2,
		ProbeInterval: 2 * time.Millisecond, CatchupInterval: 2 * time.Millisecond,
		Peers: []cluster.Peer{{ID: "n1", URL: "http://127.0.0.1:1"}, {ID: "n2", URL: o.ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Owner(contractDB).ID != "n2" {
		t.Fatalf("the contract database %q is not owned by the stub in this ring; pick another name", contractDB)
	}
	return c
}

func (o *ownerStub) answerIntegrity(f func(name string) client.IntegrityInfo) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.integrity = f
}

func (o *ownerStub) pulled() []client.PullRequest {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]client.PullRequest(nil), o.pulls...)
}

// TestReplicatedDropLiftsQuarantine: a quarantined copy dropped by a
// replicated record leaves nothing behind — not in the quarantine view, not
// on /healthz, and not in what the next catch-up round asks its owner for.
// The name-keyed quarantine table kept the record forever, and the repair
// loop pulled for a name nobody held.
func TestReplicatedDropLiftsQuarantine(t *testing.T) {
	env := newWriteEnv(t, false)
	owner := newOwnerStub(t)
	c := owner.cluster(t)
	if err := env.replicate(t, priorContent, priorGen); err != nil {
		t.Fatal(err)
	}
	env.s.quarantine(contractDB, "regression", false)
	if _, out := doJSON(t, env.s, "GET", "/healthz", nil); out["quarantined"] == nil {
		t.Fatal("test premise broken: the quarantine is not visible on /healthz")
	}

	applied, _, err := env.s.applyReplicated(context.Background(), client.ReplicateRecord{Op: "drop", Name: contractDB, Gen: priorGen})
	if err != nil || !applied {
		t.Fatalf("replicated drop: applied=%t err=%v", applied, err)
	}

	if q := env.s.quarantinedEntries(); len(q) != 0 {
		t.Errorf("STALE: dropped database is still in the quarantine view (%s)", q[0].quar.reason)
	}
	if _, out := doJSON(t, env.s, "GET", "/healthz", nil); out["quarantined"] != nil {
		t.Errorf("/healthz stays degraded after the drop: %v", out["quarantined"])
	}
	env.s.catchupOnce(context.Background(), c)
	pulls := owner.pulled()
	if len(pulls) == 0 {
		t.Fatal("the catch-up round did not reach the owner")
	}
	for _, p := range pulls {
		if _, named := p.Have[contractDB]; named {
			t.Errorf("catch-up still pulls for the dropped database: have=%v", p.Have)
		}
	}
}

// TestStaleFindingSparesNewerGeneration: a finding is about the generation
// the pass examined. When the name was re-registered while the pass was
// pacing its disk read or waiting on the owner, the finding must be dropped
// — the name-keyed quarantine put it on the healthy new generation.
func TestStaleFindingSparesNewerGeneration(t *testing.T) {
	healthy := func(t *testing.T, s *Server, wantGen uint64) {
		t.Helper()
		e, ok := s.dbs.get(contractDB)
		if !ok || e.gen != wantGen {
			t.Fatalf("live entry %+v, want generation %d", e, wantGen)
		}
		if e.quar != nil {
			t.Fatalf("healthy gen %d quarantined by a finding about gen %d: %s", wantGen, priorGen, e.quar.reason)
		}
		if rec, _ := doJSON(t, s, "POST", "/v1/query", map[string]any{"db": contractDB, "query": quickQuery}); rec.Code != http.StatusOK {
			t.Errorf("read of the live generation: %d %s", rec.Code, rec.Body.String())
		}
		if v := s.mQuarantines.Value(); v != 0 {
			t.Errorf("quarantines counter = %d for a finding that was dropped", v)
		}
	}

	t.Run("scrub", func(t *testing.T) {
		env := newWriteEnv(t, false)
		if err := env.replicate(t, priorContent, priorGen); err != nil {
			t.Fatal(err)
		}
		corruptMemory(t, env.s, contractDB)
		examined, _ := env.s.dbs.get(contractDB)
		if err := env.replicate(t, nextContent, priorGen+1); err != nil {
			t.Fatal(err)
		}
		if finding, _ := env.s.scrubDB(context.Background(), examined); finding == "" {
			t.Fatal("test premise broken: the scrub found nothing wrong with the corrupt copy")
		}
		healthy(t, env.s, priorGen+1)
	})

	t.Run("anti-entropy", func(t *testing.T) {
		env := newWriteEnv(t, false)
		owner := newOwnerStub(t)
		c := owner.cluster(t)
		if err := env.replicate(t, priorContent, priorGen); err != nil {
			t.Fatal(err)
		}
		// The owner answers for the generation the round is comparing, with
		// a different digest — but only after the next generation arrived.
		owner.answerIntegrity(func(name string) client.IntegrityInfo {
			if err := env.replicate(t, nextContent, priorGen+1); err != nil {
				t.Error(err)
			}
			return client.IntegrityInfo{DB: name, Gen: priorGen, Digest: "00000000deadbeef"}
		})
		env.s.antiEntropyOnce(context.Background(), c)
		if v := env.s.mAEDivergent.Value(); v != 1 {
			t.Fatalf("test premise broken: anti-entropy saw %d divergences, want 1", v)
		}
		healthy(t, env.s, priorGen+1)
	})

	t.Run("injected digest fault", func(t *testing.T) {
		env := newWriteEnv(t, false)
		if err := env.replicate(t, priorContent, priorGen); err != nil {
			t.Fatal(err)
		}
		examined, _ := env.s.dbs.get(contractDB)
		if err := env.replicate(t, nextContent, priorGen+1); err != nil {
			t.Fatal(err)
		}
		armFault(t, "integrity.digest")
		finding, _ := env.s.scrubDB(context.Background(), examined)
		faultinject.Disable()
		if finding == "" {
			t.Fatal("test premise broken: the armed site produced no finding")
		}
		healthy(t, env.s, priorGen+1)
	})
}

// TestBackgroundLoopsVisibleAndStoppable: every background loop shows up in
// the metrics registry under its name — a pass counter and a duration
// histogram — and Shutdown stops them all, whether parked in a wait or
// in the middle of a pass (here: a catch-up pull the owner never answers),
// leaving no goroutine behind.
func TestBackgroundLoopsVisibleAndStoppable(t *testing.T) {
	owner := newOwnerStub(t)
	baseline := runtime.NumGoroutine()
	s := newTestServer(t, Config{ScrubInterval: 2 * time.Millisecond, AntiEntropyInterval: 2 * time.Millisecond})
	if err := s.AttachCluster(owner.cluster(t)); err != nil {
		t.Fatal(err)
	}
	loops := []string{"scrub", "catchup", "anti_entropy", "probe"}
	deadline := time.Now().Add(10 * time.Second)
	for _, name := range loops {
		for s.reg.Counter("loop_"+name+"_passes_total").Value() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("loop %q recorded no pass", name)
			}
			time.Sleep(time.Millisecond)
		}
		if s.reg.Histogram("loop_"+name+"_seconds", nil).Count() == 0 {
			t.Errorf("loop %q counted a pass but observed no duration", name)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	for _, name := range loops {
		if !strings.Contains(rec.Body.String(), `"loop_`+name+`_passes_total"`) {
			t.Errorf("/debug/vars does not show loop %q", name)
		}
	}

	// Park the next catch-up round inside its pull, then shut down.
	hold := make(chan struct{})
	defer close(hold)
	owner.mu.Lock()
	owner.hold, owner.pulls = hold, nil
	owner.mu.Unlock()
	for len(owner.pulled()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no catch-up round reached the owner")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with a loop mid-pass: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("shutdown took %v with a loop mid-pass: the pass did not see the cancellation", d)
	}
	waitGoroutines(t, baseline)
}

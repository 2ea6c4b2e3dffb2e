package server

// Cluster mode: this file is the router and replication layer that turns
// independent ecrpqd processes into one replicated deployment.
//
// Placement is single-writer: internal/cluster's consistent-hash ring
// names one owner per database, and only the owner accepts registers and
// drops (other nodes answer 307 to the owner, or 503 OWNER_DOWN while it
// is unreachable). Reads scale out: every holder (owner + replicas)
// serves queries over its local copy, and a node that does not hold the
// database forwards the request to a healthy holder, rotating across
// replicas for fan-out and failing over to the next holder on transport
// errors.
//
// Replication ships the same journal records internal/persist writes:
// after a register/drop commits locally (journal fsynced when a store is
// attached), the owner pushes {op, name, gen, snapshot} to each replica
// (POST /v1/replicate), which applies it generation-monotonically —
// records at or below the replica's current generation are no-ops, so
// re-sends and reorderings converge. A replica with its own -data-dir
// journals the applied record locally before installing it, making
// replicas crash-safe with the owner's generations intact. Push losses
// (partitions, dropped ship-queue entries, a replica that was down) are
// repaired by the pull-based catch-up loop: every CatchupInterval each
// node asks each owner for records it is missing (POST
// /v1/replicate/pull), so the cluster converges without any node keeping
// per-peer retransmission state.
//
// Staleness keeps the /v1/enumerate contract: generations are allocated
// only by the owner and preserved verbatim through replication, so a
// cursor minted on any holder is valid on every holder at the same
// generation, and a replica that is behind (or ahead) answers 410
// STALE_CURSOR exactly as a re-registered single node does.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ecrpq/internal/client"
	"ecrpq/internal/cluster"
	"ecrpq/internal/faultinject"
	"ecrpq/internal/govern"
	"ecrpq/internal/persist"
	"ecrpq/internal/trace"
)

// shipQueueDepth bounds the async push-replication queue. Overflow drops
// the push (metric: cluster_replicate_ship_dropped_total) and leaves the
// repair to catch-up, so a slow replica cannot wedge registrations.
const shipQueueDepth = 256

// shipTask is one queued push: the encoded record plus the ledger
// reservation charging its buffer to the process memory budget.
type shipTask struct {
	rec client.ReplicateRecord
	res *govern.Reservation
}

// AttachCluster wires cluster membership into the server and starts the
// probers, the push shipper, the catch-up loop and (when configured) the
// anti-entropy loop. May be called on a serving node (a late joiner catches
// up via pulls); Shutdown stops everything it starts.
func (s *Server) AttachCluster(c *cluster.Cluster) error {
	if c == nil {
		return fmt.Errorf("server: nil cluster")
	}
	if !s.clu.CompareAndSwap(nil, c) {
		return fmt.Errorf("server: a cluster is already attached")
	}
	c.Start(s.loops)
	s.loops.Run(func(ctx context.Context) { s.shipLoop(ctx, c) })
	s.loops.Every("catchup", c.CatchupInterval(), func(ctx context.Context) { s.catchupOnce(ctx, c) })
	if s.cfg.AntiEntropyInterval > 0 {
		s.loops.Every("anti_entropy", s.cfg.AntiEntropyInterval, func(ctx context.Context) { s.antiEntropyOnce(ctx, c) })
	}
	s.cfg.Logger.Printf("event=cluster_start node=%s peers=%d rf=%d probe_ms=%d",
		c.Self().ID, len(c.Peers()), c.ReplicationFactor(), c.ProbeInterval().Milliseconds())
	return nil
}

// routeWrite enforces single-writer placement for register/drop: when
// another node owns name, the request is 307-redirected there (the
// client re-sends the body; Go's http.Client follows 307 with GetBody
// automatically), and while the owner is unreachable writes fail fast
// with 503 OWNER_DOWN rather than silently diverging generations.
// Returns true when the response has been written.
func (s *Server) routeWrite(w http.ResponseWriter, r *http.Request, name string) bool {
	c := s.clu.Load()
	if c == nil {
		return false
	}
	owner := c.Owner(name)
	if owner.ID == c.Self().ID {
		return false
	}
	if !c.Healthy(owner.ID) {
		s.mOwnerDown.Inc()
		w.Header().Set("Retry-After", "2")
		writeErrorCode(w, http.StatusServiceUnavailable, "OWNER_DOWN",
			fmt.Sprintf("node %s owns %q and is unreachable; retry when it returns", owner.ID, name))
		return true
	}
	s.mRedirects.Inc()
	loc := owner.URL + r.URL.EscapedPath()
	w.Header().Set("Location", loc)
	writeJSON(w, http.StatusTemporaryRedirect, map[string]string{"owner": owner.ID, "location": loc})
	return true
}

// enqueueShip queues one journal record for async push replication. The
// record's buffer is charged to the process ledger while queued; when the
// ledger or the queue is full the push is dropped (catch-up repairs) so
// replication can never wedge or OOM the write path. Called by install and
// remove under persistMu, immediately after the local commit, so the queue
// order matches commit order.
func (s *Server) enqueueShip(rec client.ReplicateRecord) {
	res, err := s.broker.Reserve(int64(len(rec.Snapshot)) + 256)
	if err != nil {
		s.mShipDropped.Inc()
		s.cfg.Logger.Printf("event=replicate_ship_dropped db=%s gen=%d reason=ledger err=%q", rec.Name, rec.Gen, err)
		return
	}
	select {
	case s.shipCh <- shipTask{rec: rec, res: res}:
	default:
		res.Release()
		s.mShipDropped.Inc()
		s.cfg.Logger.Printf("event=replicate_ship_dropped db=%s gen=%d reason=queue_full", rec.Name, rec.Gen)
	}
}

// shipLoop drains the push queue in commit order, one record at a time.
func (s *Server) shipLoop(ctx context.Context, c *cluster.Cluster) {
	for {
		select {
		case <-ctx.Done():
			// Return the queued buffers to the ledger; the records are
			// already durable locally and catch-up re-ships them.
			for {
				select {
				case t := <-s.shipCh:
					t.res.Release()
				default:
					return
				}
			}
		case t := <-s.shipCh:
			s.shipOne(ctx, c, t.rec)
			t.res.Release()
		}
	}
}

// shipOne pushes one record to every other holder of its database.
// Failures are counted and logged, never retried here beyond the client's
// own policy: catch-up owns durability of replication.
func (s *Server) shipOne(ctx context.Context, c *cluster.Cluster, rec client.ReplicateRecord) {
	for _, p := range c.Holders(rec.Name) {
		if p.ID == c.Self().ID {
			continue
		}
		if err := faultinject.Point("cluster.partition"); err != nil {
			s.mShipErrors.Inc()
			continue
		}
		if err := faultinject.Point("cluster.replicate.send"); err != nil {
			s.mShipErrors.Inc()
			continue
		}
		sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		_, err := c.ClientFor(p.ID).Replicate(sctx, rec)
		cancel()
		if err != nil {
			s.mShipErrors.Inc()
			s.cfg.Logger.Printf("event=replicate_ship_failed peer=%s db=%s gen=%d err=%q",
				p.ID, rec.Name, rec.Gen, err)
			var se *client.StatusError
			if !errors.As(err, &se) {
				// Transport-level failure: feed the failure detector so the
				// router stops picking this peer before the next probe.
				c.MarkFailure(p.ID)
			}
			continue
		}
		s.mShipped.Inc()
	}
}

// catchupOnce performs one pull round against every healthy peer, asking
// each owner for the records this node is missing. This is the convergence
// backstop: it repairs partitions, ship drops, and replicas that were down,
// it bootstraps a freshly wiped (or late-joining) node from nothing, and it
// is the repair path for a quarantined copy — reported at generation 0, so
// the owner re-sends it in full and the apply verifies the shipped digest.
func (s *Server) catchupOnce(ctx context.Context, c *cluster.Cluster) {
	if err := faultinject.Point("cluster.catchup"); err != nil {
		return
	}
	self := c.Self().ID
	for _, p := range c.Peers() {
		if p.ID == self || !c.Healthy(p.ID) {
			continue
		}
		if err := faultinject.Point("cluster.partition"); err != nil {
			continue
		}
		// have reports every local database this peer owns, so the owner
		// can answer with exactly the records we are missing, behind on, or
		// hold a quarantined copy of.
		have := make(map[string]uint64)
		for _, e := range s.dbs.list() {
			if c.Owner(e.name).ID != p.ID {
				continue
			}
			have[e.name] = e.gen
			if e.quar != nil {
				have[e.name] = 0
			}
		}
		pctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		resp, err := c.ClientFor(p.ID).ReplicatePull(pctx, client.PullRequest{Node: self, Have: have})
		cancel()
		if err != nil {
			s.cfg.Logger.Printf("event=catchup_failed peer=%s err=%q", p.ID, err)
			continue
		}
		s.mCatchupPulls.Inc()
		for _, rec := range resp.Records {
			applied, _, err := s.applyReplicated(ctx, rec)
			if err != nil {
				s.cfg.Logger.Printf("event=catchup_apply_failed db=%s gen=%d err=%q", rec.Name, rec.Gen, err)
				continue
			}
			if applied {
				s.mCatchupApplied.Inc()
				s.cfg.Logger.Printf("event=catchup_applied db=%s gen=%d from=%s", rec.Name, rec.Gen, p.ID)
			}
		}
		for _, name := range resp.Absent {
			e, ok := s.dbs.get(name)
			if !ok {
				continue
			}
			if _, _, err := s.applyReplicated(ctx, client.ReplicateRecord{Op: "drop", Name: name, Gen: e.gen}); err != nil {
				s.cfg.Logger.Printf("event=catchup_drop_failed db=%s err=%q", name, err)
			}
		}
	}
}

// applyReplicated installs one shipped journal record, preserving the
// owner's generation. Apply is generation-monotonic and idempotent: a
// record at or below the local generation for its name is a no-op
// ("stale"), so pushes and catch-up pulls may race or repeat freely — except
// that a register AT the generation of a quarantined local copy is exactly
// how a repair pull re-installs verified content, and goes through.
func (s *Server) applyReplicated(ctx context.Context, rec client.ReplicateRecord) (applied bool, reason string, err error) {
	if rec.Name == "" || rec.Gen == 0 {
		return false, "", fmt.Errorf("replicate: record needs name and generation")
	}
	var changed *dbEntry
	switch rec.Op {
	case "register":
		// Cheap staleness pre-check before decoding a possibly large
		// snapshot; install re-checks under persistMu.
		if e, ok := s.dbs.get(rec.Name); ok && replicaFresh(e, rec.Gen) {
			return false, "stale", nil
		}
		db, derr := persist.DecodeSnapshot(rec.Snapshot)
		if derr != nil {
			return false, "", fmt.Errorf("replicate: decoding snapshot for %q gen %d: %w", rec.Name, rec.Gen, derr)
		}
		changed, _, err = s.install(ctx, installReq{from: fromOwner, name: rec.Name, db: db, gen: rec.Gen,
			at: time.Unix(0, rec.UnixNano), stats: rec.Stats, digest: rec.Digest})
	case "drop":
		changed, err = s.remove(ctx, fromOwner, rec.Name, rec.Gen)
	default:
		return false, "", fmt.Errorf("replicate: unknown op %q", rec.Op)
	}
	if err != nil {
		return false, "", fmt.Errorf("replicate: %w", err)
	}
	if changed == nil {
		return false, "stale", nil
	}
	return true, "", nil
}

// handleReplicate is the push-replication endpoint: a holder applies one
// journal record shipped by the owner. The request buffer is charged to
// the process ledger for the life of the apply, so a replication burst
// competes with queries for the same memory budget instead of bypassing
// it.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.clu.Load() == nil {
		writeError(w, http.StatusNotFound, "not running in cluster mode")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	res, rerr := s.broker.Reserve(int64(len(body)) * 2) // raw JSON + decoded graph
	if rerr != nil {
		s.mResourceDenied.Inc()
		w.Header().Set("Retry-After", "2")
		writeErrorCode(w, http.StatusTooManyRequests, "RESOURCE_EXHAUSTED",
			"insufficient memory budget to apply replication record: "+rerr.Error())
		return
	}
	defer res.Release()
	var rec client.ReplicateRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding replicate record: "+err.Error())
		return
	}
	if err := faultinject.Point("cluster.replicate.apply"); err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "replication apply unavailable: "+err.Error())
		return
	}
	ctx, tr := s.startTrace(r.Context(), "replicate")
	defer s.finishTrace(tr)
	tr.SetStr("db", rec.Name)
	tr.SetInt("gen", int64(rec.Gen))
	_, sp := trace.StartSpan(ctx, "cluster/replicate_apply")
	applied, reason, err := s.applyReplicated(ctx, rec)
	sp.End()
	if err != nil {
		s.cfg.Logger.Printf("event=replicate_apply_failed db=%s gen=%d err=%q", rec.Name, rec.Gen, err)
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if applied {
		s.mApplied.Inc()
		s.cfg.Logger.Printf("event=replicate_applied db=%s gen=%d op=%s", rec.Name, rec.Gen, rec.Op)
	} else {
		s.mApplyStale.Inc()
	}
	writeJSON(w, http.StatusOK, client.ReplicateResult{Applied: applied, Reason: reason})
}

// handleReplicatePull is the owner side of catch-up: answer with full
// records for every database this node owns that the caller should hold
// and is missing or behind on, plus the names the caller holds that no
// longer exist here.
func (s *Server) handleReplicatePull(w http.ResponseWriter, r *http.Request) {
	c := s.clu.Load()
	if c == nil {
		writeError(w, http.StatusNotFound, "not running in cluster mode")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req client.PullRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding pull request: "+err.Error())
		return
	}
	if req.Node == "" {
		writeError(w, http.StatusBadRequest, "pull request needs the caller's node id")
		return
	}
	self := c.Self().ID
	resp := client.PullResponse{Records: []client.ReplicateRecord{}}
	for _, e := range s.dbs.list() {
		if c.Owner(e.name).ID != self {
			continue
		}
		if !c.Holds(req.Node, e.name) || req.Have[e.name] >= e.gen {
			continue
		}
		// Never serve catch-up records from a quarantined copy: the whole
		// point of quarantine is that this content is suspect, and a pull
		// would propagate it with a matching (locally computed) digest.
		if e.quar != nil {
			continue
		}
		resp.Records = append(resp.Records, recordFor(e))
	}
	for name := range req.Have {
		if c.Owner(name).ID != self {
			continue
		}
		if _, ok := s.dbs.get(name); !ok {
			resp.Absent = append(resp.Absent, name)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterStatus reports membership, per-peer health, and the
// placement of every locally held database.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	c := s.clu.Load()
	if c == nil {
		writeError(w, http.StatusNotFound, "not running in cluster mode")
		return
	}
	type dbRow struct {
		Name       string   `json:"name"`
		Generation uint64   `json:"generation"`
		Owner      string   `json:"owner"`
		Holders    []string `json:"holders"`
	}
	entries := s.dbs.list()
	rows := make([]dbRow, 0, len(entries))
	for _, e := range entries {
		holders := c.Holders(e.name)
		ids := make([]string, len(holders))
		for i, h := range holders {
			ids[i] = h.ID
		}
		rows = append(rows, dbRow{Name: e.name, Generation: e.gen, Owner: c.Owner(e.name).ID, Holders: ids})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"node_id":            c.Self().ID,
		"replication_factor": c.ReplicationFactor(),
		"probe_interval_ms":  c.ProbeInterval().Milliseconds(),
		"peers":              c.Status(),
		"databases":          rows,
	})
}

// forwardTargets orders the candidate peers for a read of db: healthy
// holders first, rotated by a round-robin counter so reads fan out across
// replicas instead of pinning the owner, then unhealthy holders as a last
// resort (the failure detector may be stale; a refused connection is
// cheap and the truth).
func (s *Server) forwardTargets(c *cluster.Cluster, db string) []cluster.Peer {
	holders := c.Holders(db)
	self := c.Self().ID
	var healthy, down []cluster.Peer
	for _, p := range holders {
		if p.ID == self {
			continue
		}
		if c.Healthy(p.ID) {
			healthy = append(healthy, p)
		} else {
			down = append(down, p)
		}
	}
	out := make([]cluster.Peer, 0, len(healthy)+len(down))
	if len(healthy) > 1 {
		off := int(s.forwardRR.Add(1) % uint64(len(healthy)))
		out = append(out, healthy[off:]...)
		out = append(out, healthy[:off]...)
	} else {
		out = append(out, healthy...)
	}
	return append(out, down...)
}

// forward routes a read to another holder of its database, failing over
// across targets on transport errors. A peer that answers — success or a
// typed refusal (stale cursor, bad query, overload) — ends the attempt: its
// decision would be the same everywhere, so failing over on it would just
// multiply load. The request goes out as it came in, marked forwarded, and
// the peer's success body comes back verbatim: whatever the holder said —
// a degraded marking, a field this node's build does not know — reaches the
// caller. Each hop is bounded by the peer's own deadline plus margin for
// transport and queueing.
func (s *Server) forward(ctx context.Context, c *cluster.Cluster, w http.ResponseWriter, op *readOp, req readRequest) {
	fctx, sp := trace.StartSpan(ctx, "cluster/forward")
	defer sp.End()
	req.Forwarded = true
	hop := s.clampTimeout(req.TimeoutMs) + 5*time.Second
	var lastErr error
	for _, p := range s.forwardTargets(c, req.DB) {
		if err := faultinject.Point("cluster.partition"); err != nil {
			s.mForwardErrors.Inc()
			lastErr = err
			continue
		}
		if err := faultinject.Point("cluster.forward"); err != nil {
			s.mForwardErrors.Inc()
			lastErr = err
			continue
		}
		hctx, cancel := context.WithTimeout(fctx, hop)
		raw, err := c.ClientFor(p.ID).Read(hctx, "/v1/"+op.name, req)
		cancel()
		if err == nil {
			s.mForwards.Inc()
			c.MarkSuccess(p.ID)
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			fmt.Fprintf(w, "%s\n", raw)
			return
		}
		var se *client.StatusError
		if errors.As(err, &se) {
			// CORRUPT_LOCAL is the one typed refusal that is peer-local:
			// the holder quarantined its copy, but another holder's copy is
			// presumed healthy. Keep failing over instead of surfacing it.
			if se.ErrCode == "CORRUPT_LOCAL" {
				s.mForwardErrors.Inc()
				lastErr = err
				continue
			}
			s.mForwards.Inc()
			if se.RetryAfter > 0 {
				secs := int64((se.RetryAfter + time.Second - 1) / time.Second)
				w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
			}
			if se.ErrCode != "" {
				writeErrorCode(w, se.Code, se.ErrCode, se.Msg)
			} else {
				writeError(w, se.Code, se.Msg)
			}
			return
		}
		s.mForwardErrors.Inc()
		c.MarkFailure(p.ID)
		lastErr = err
	}
	w.Header().Set("Retry-After", "2")
	msg := fmt.Sprintf("no reachable replica holds %q", req.DB)
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	writeErrorCode(w, http.StatusServiceUnavailable, "NO_REPLICA", msg)
}

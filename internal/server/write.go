package server

// The write pipeline: every way a database enters the registry goes through
// install and every way one leaves through remove — the write-side twin of
// serveRead. Their callers (the HTTP handlers and RegisterDB, the
// replication apply, the restore loop, the scrub's memory heal) only build
// the request and map the outcome to a status and a log line.

import (
	"context"
	"fmt"
	"time"

	"ecrpq/internal/client"
	"ecrpq/internal/faultinject"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/integrity"
	"ecrpq/internal/persist"
	"ecrpq/internal/stats"
)

// writeSource is where a write comes from, which decides who supplies the
// generation, whether the content is verified against an expected digest,
// and whether the write is journaled and shipped.
type writeSource int

const (
	// fromClient: POST/DELETE /v1/dbs/{name} or RegisterDB on the node that
	// owns the name. This node mints the generation, journals and ships.
	fromClient writeSource = iota
	// fromOwner: a replication record, pushed or pulled. The owner's
	// generation and digest are authoritative: a stale record is a no-op, a
	// snapshot that does not digest to what the owner shipped is rejected.
	// Journaled, never shipped on.
	fromOwner
	// fromDisk: a journal entry replayed by AttachStore. Not journaled
	// again; content that disagrees with its digest sidecar is installed
	// quarantined rather than served or dropped.
	fromDisk
	// fromScrub: the scrub's memory heal — the verified on-disk copy of the
	// generation that is live right now. Not journaled.
	fromScrub
)

// installReq is one database on its way into the registry.
type installReq struct {
	from writeSource
	name string
	db   *graphdb.DB
	gen  uint64    // ignored fromClient: install mints it
	at   time.Time // ignored fromClient: install stamps it
	// stats and digest are the encoded catalog and content digest that came
	// with the content (shipped by the owner, or the sidecars on disk). The
	// catalog is used if it decodes at gen and recomputed otherwise; the
	// digest is what the content must verify against.
	stats, digest []byte
}

// install is the one path into the registry. Under persistMu (so the
// journal order is the order mutations became visible) it: refuses a stale
// generation; settles the statistics catalog and the content digest; makes
// the registration durable when a store is attached and the content did not
// just come from it; swaps the entry in, which invalidates whatever the plan
// cache built over the replaced one; and ships the record when this node
// minted the generation. A persistence failure leaves memory untouched — the
// invariant is memory ⊆ disk, so a crash can lose nothing the server ever
// acknowledged. A nil entry with a nil error means the request was stale and
// nothing changed. The new entry is never quarantined unless install itself
// finds cause, so a replacement supersedes a quarantine by construction.
func (s *Server) install(ctx context.Context, req installReq) (entry, replaced *dbEntry, err error) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	cur, held := s.dbs.get(req.name)
	switch {
	case req.from == fromClient:
		req.gen, req.at = s.dbs.allocGen(), time.Now()
	case req.from == fromScrub:
		// A heal is for exactly the generation the scrub examined: if the
		// name was replaced or dropped while it read disk, nothing is left
		// to heal.
		if !held || cur.gen != req.gen {
			return nil, nil, nil
		}
	case held && replicaFresh(cur, req.gen):
		return nil, nil, nil
	}

	// Statistics come before the durability write so the sidecar and the
	// replication record carry them. A replica prefers the owner's catalog (it
	// must cost plans exactly as the owner does) and a restart the sidecar's;
	// anything that does not decode at this generation — absent, corrupt, or
	// a previous generation's file left by a crash between snapshot and
	// sidecar — is recomputed. A nil catalog (stats disabled or the ledger
	// refused the transient compute) degrades the planner to the fixed rule;
	// it never blocks the registration.
	var cat *stats.Catalog
	if len(req.stats) > 0 {
		if dec, derr := stats.Decode(req.stats); derr == nil && dec.Generation == req.gen {
			cat = dec
		}
	}
	if cat == nil {
		req.stats = nil
		if cat = s.computeStats(ctx, req.db, req.gen); cat != nil {
			req.stats = cat.Encode()
		}
	}

	// The digest likewise: replicas verify decoded snapshots against it, the
	// scrub re-verifies memory and disk against it, and anti-entropy compares
	// it across holders.
	dg := integrity.Compute(req.db, req.gen)
	s.mDigestsComputed.Inc()
	var quar *quarRecord
	switch req.from {
	case fromOwner:
		if err := s.verifyShippedDigest(req, dg); err != nil {
			return nil, nil, err
		}
	case fromDisk, fromScrub:
		// The snapshot's CRC already vouches for the bytes on disk; the
		// sidecar additionally vouches that they decode to the content that
		// was registered. A mismatch is at-rest damage the CRC could not
		// see: install the entry quarantined rather than serve potentially
		// wrong answers or refuse to start, and keep the *persisted* digest
		// as its expectation — one computed from the corrupt content would
		// let the next scrub pass verify the corruption clean and lift the
		// quarantine. A sidecar that does not decode at this generation is
		// ignored.
		if want, derr := integrity.Decode(req.digest); len(req.digest) > 0 && derr == nil && want.Gen == req.gen {
			if want != dg {
				s.mDigestMismatches.Inc()
				quar = &quarRecord{reason: fmt.Sprintf("restore: digest mismatch (disk %s, computed %s)", want, dg), scrubLiftable: true}
			}
			dg = want
		}
	}

	if st := s.store.Load(); st != nil && (req.from == fromClient || req.from == fromOwner) {
		if err := st.AppendRegisterWithSidecars(ctx, req.name, req.gen, req.at, req.db, req.stats, dg.Encode()); err != nil {
			return nil, nil, fmt.Errorf("persisting %q: %w", req.name, err)
		}
	}
	entry = &dbEntry{name: req.name, db: req.db, gen: req.gen, registeredAt: req.at, stats: cat, digest: dg, quar: quar}
	if req.from == fromScrub && quar == nil && cur.quar != nil && !cur.quar.scrubLiftable {
		// The heal re-verified the copy locally, which cannot rule out the
		// divergence from the owner this record stands for.
		entry.quar = cur.quar
	}
	replaced = s.dbs.install(entry)
	switch {
	case quar != nil:
		s.noteQuarantined(entry.name, quar.reason)
	case entry.quar == nil && req.from != fromClient && replaced != nil && replaced.quar != nil:
		// Verified content took a quarantined copy's place: a repair. (A
		// client's replacement merely supersedes the quarantine.)
		s.noteRepaired(entry.name)
	}
	if req.from == fromClient && s.clu.Load() != nil {
		s.enqueueShip(recordFor(entry))
	}
	return entry, replaced, nil
}

// remove is the one path out of the registry: the drop is journaled first,
// then the entry is removed (and with it its materializations and any
// quarantine) and, when a client asked this node for it, shipped. A
// replicated drop (fromOwner) is generation-monotonic like a replicated
// register: it only removes an entry at or below gen. Dropping a name that
// is not registered is not worth journaling, so existence is checked first —
// under persistMu, which all mutations hold, making check-then-act safe. A
// nil entry with a nil error means nothing was removed.
func (s *Server) remove(ctx context.Context, from writeSource, name string, gen uint64) (removed *dbEntry, err error) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	cur, held := s.dbs.get(name)
	if !held || (from == fromOwner && cur.gen > gen) {
		return nil, nil
	}
	if st := s.store.Load(); st != nil {
		if err := st.AppendDropContext(ctx, name, cur.gen); err != nil {
			return nil, fmt.Errorf("persisting drop of %q: %w", name, err)
		}
	}
	removed = s.dbs.remove(name)
	if from == fromClient && s.clu.Load() != nil {
		s.enqueueShip(client.ReplicateRecord{Op: "drop", Name: name, Gen: removed.gen})
	}
	return removed, nil
}

// replicaFresh reports whether the local entry already covers a record at
// gen. Strictly newer local content always wins; at the same generation the
// record is redundant — unless the local copy is quarantined, in which case
// the incoming record is a repair and must be allowed through.
func replicaFresh(e *dbEntry, gen uint64) bool {
	return e.gen > gen || (e.gen == gen && e.quar == nil)
}

// recordFor renders an entry as the replication record that installs it
// elsewhere. The statistics catalog rides along so replicas plan from the
// owner's catalog (byte-identical costs → identical EXPLAIN output
// cluster-wide) instead of recomputing.
func recordFor(e *dbEntry) client.ReplicateRecord {
	rec := client.ReplicateRecord{
		Op: "register", Name: e.name, Gen: e.gen,
		UnixNano: e.registeredAt.UnixNano(), Snapshot: persist.EncodeSnapshot(e.db),
	}
	if e.stats != nil {
		rec.Stats = e.stats.Encode()
	}
	if e.digest.Gen == e.gen {
		rec.Digest = e.digest.Encode()
	}
	return rec
}

// verifyShippedDigest checks got, the digest of a decoded replication
// snapshot, against the owner's shipped digest before anything becomes
// durable or visible. A mismatch means the record was damaged somewhere past
// the owner's commit (or the owner itself is corrupt): reject it — the error
// surfaces as a 422 to the pusher, and catch-up re-pulls a fresh snapshot —
// rather than install divergent state that would silently serve wrong
// answers. An empty shipped digest (an owner predating the integrity
// subsystem) is accepted with the locally computed digest standing in.
func (s *Server) verifyShippedDigest(req installReq, got integrity.Digest) error {
	if err := faultinject.Point("integrity.digest"); err != nil {
		// Chaos: pretend the decode produced divergent content.
		got.Sum ^= 0xbad1dea
	}
	if len(req.digest) == 0 {
		return nil
	}
	want, err := integrity.Decode(req.digest)
	if err != nil {
		s.mApplyRejected.Inc()
		return fmt.Errorf("digest record for %q gen %d: %w", req.name, req.gen, err)
	}
	if want.Gen != req.gen {
		s.mApplyRejected.Inc()
		return fmt.Errorf("digest for %q is bound to gen %d, record is gen %d", req.name, want.Gen, req.gen)
	}
	if got != want {
		s.mDigestMismatches.Inc()
		s.mApplyRejected.Inc()
		return fmt.Errorf("%q gen %d digest mismatch: owner shipped %s, snapshot decodes to %s",
			req.name, req.gen, want, got)
	}
	return nil
}

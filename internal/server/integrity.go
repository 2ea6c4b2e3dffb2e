package server

// Integrity subsystem: quarantine, background scrub, and anti-entropy.
//
// Every registration carries an order-independent content digest
// (internal/integrity) computed by the owner, persisted as a sidecar,
// and shipped with replication. This file is everything the server does
// with it after register time:
//
//   - Quarantine: a database whose content fails verification is marked
//     corrupt-local. Reads against it answer a typed 503 CORRUPT_LOCAL
//     (in cluster mode they transparently fail over to a healthy
//     holder), writes are unaffected (a replacement registration heals),
//     and the process keeps serving everything else — corruption is a
//     per-database degradation, never a crash.
//
//   - Scrub: when Config.ScrubInterval > 0, a background loop
//     re-verifies each database's in-memory digest and structural
//     invariants, re-reads its on-disk snapshot (paced by
//     ScrubPaceBytes and charged to the govern ledger, so scrubbing
//     competes with queries instead of starving them), and re-checks
//     the journal tail. Findings feed a repair matrix: good memory
//     heals bad disk by rewriting the snapshot; good disk heals bad
//     memory by reinstalling; when both are bad the database is
//     quarantined and, on a replica, re-fetched from the ring owner by
//     the next catch-up round.
//
//   - Anti-entropy: when Config.AntiEntropyInterval > 0 in cluster
//     mode, each non-owner holder periodically compares its
//     (generation, digest) pair against the owner's. Divergence at the
//     same generation means silent corruption or a bad apply — the
//     holder quarantines its copy and the next catch-up round pulls a
//     fresh verified snapshot.
//
// Fault injection: "integrity.bitflip" flips a byte in scrub's view of
// the on-disk snapshot (at-rest rot); "integrity.digest" corrupts a
// digest verification (divergent replica content). Both are no-ops
// without the faultinject build tag.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"ecrpq/internal/client"
	"ecrpq/internal/cluster"
	"ecrpq/internal/faultinject"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/integrity"
	"ecrpq/internal/persist"
)

// quarantineEntry marks e's generation of its database corrupt-local. A
// finding about a generation that has since been replaced or dropped is
// discarded, and the first record on a copy sticks.
func (s *Server) quarantineEntry(e *dbEntry, reason string, scrubLiftable bool) {
	if s.dbs.setQuarantine(e.name, e.gen, &quarRecord{reason: reason, scrubLiftable: scrubLiftable}) {
		s.noteQuarantined(e.name, reason)
	}
}

// noteQuarantined counts and logs a copy entering quarantine.
func (s *Server) noteQuarantined(name, reason string) {
	s.mQuarantines.Inc()
	s.cfg.Logger.Printf("event=integrity_quarantine db=%s reason=%q", name, reason)
}

// noteRepaired counts and logs a quarantine that ended because verified
// content is in place again (as opposed to one superseded by a client's
// replacement or drop).
func (s *Server) noteRepaired(name string) {
	s.mRepairs.Inc()
	s.cfg.Logger.Printf("event=integrity_repaired db=%s", name)
}

// quarantinedEntries returns the entries currently quarantined, sorted by
// name.
func (s *Server) quarantinedEntries() []*dbEntry {
	var out []*dbEntry
	for _, e := range s.dbs.list() {
		if e.quar != nil {
			out = append(out, e)
		}
	}
	return out
}

// refuseCorrupt answers a read against a quarantined copy with the typed
// 503. Retry-After is the scrub/catch-up cadence ballpark: by the next
// attempt a verified copy may have been re-fetched.
func (s *Server) refuseCorrupt(w http.ResponseWriter, e *dbEntry) {
	s.mCorruptRefused.Inc()
	w.Header().Set("Retry-After", "2")
	writeErrorCode(w, http.StatusServiceUnavailable, "CORRUPT_LOCAL",
		fmt.Sprintf("local copy of %q is quarantined: %s", e.name, e.quar.reason))
}

// handleIntegrity serves this node's (generation, digest, quarantine)
// triple for one database: the wire half of the anti-entropy protocol
// and an operator probe ("is this node's copy the one I think it is?").
func (s *Server) handleIntegrity(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.dbs.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no database %q held on this node", name))
		return
	}
	writeJSON(w, http.StatusOK, client.IntegrityInfo{
		DB:          name,
		Gen:         e.gen,
		Digest:      e.digest.String(),
		Quarantined: e.quar != nil,
	})
}

// scrubStatus is the last scrub pass's summary, served via the
// "integrity" expvar.
type scrubStatus struct {
	passes      uint64
	lastEnd     time.Time
	checked     int
	corrupt     int
	lastFinding string
	journalTorn int
	lastError   string
}

// renderIntegrity renders the integrity expvar: quarantine table and
// scrub summary.
func (s *Server) renderIntegrity() string {
	s.scrubMu.Lock()
	st := s.scrubStat
	s.scrubMu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, `{"quarantined":[`)
	for i, e := range s.quarantinedEntries() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q", e.name)
	}
	fmt.Fprintf(&b, `],"scrub_passes":%d,"scrub_checked":%d,"scrub_corrupt":%d,"scrub_journal_torn_bytes":%d,"scrub_last_finding":%q,"scrub_last_error":%q`,
		st.passes, st.checked, st.corrupt, st.journalTorn, st.lastFinding, st.lastError)
	if !st.lastEnd.IsZero() {
		fmt.Fprintf(&b, `,"scrub_last_unix":%d`, st.lastEnd.Unix())
	}
	b.WriteByte('}')
	return b.String()
}

// renderPersistHealth renders the persist_health expvar: journal salvage
// notes retained from startup and directory-sync failure accounting
// (both previously logged once and dropped).
func (s *Server) renderPersistHealth() string {
	s.salvageMu.Lock()
	salvage := len(s.salvage)
	s.salvageMu.Unlock()
	st := s.store.Load()
	var syncFails uint64
	lastSyncErr := ""
	if st != nil {
		syncFails = st.SyncDirFailures()
		lastSyncErr = st.LastSyncDirError()
	}
	return fmt.Sprintf(`{"attached":%t,"salvage_warnings":%d,"syncdir_failures":%d,"last_syncdir_error":%q}`,
		st != nil, salvage, syncFails, lastSyncErr)
}

// scrubOnce runs one full verification pass over every registered
// database plus the journal (every ScrubInterval, on the loop runner;
// abandoned between databases once ctx is cancelled). It never blocks
// serving: reads are paced and ledger-charged, verification works on
// immutable entries, and the only mutations are the same install/rewrite
// paths registration uses.
func (s *Server) scrubOnce(ctx context.Context) {
	start := time.Now()
	checked, corrupt := 0, 0
	lastFinding, lastErr := "", ""
	for _, e := range s.dbs.list() {
		if ctx.Err() != nil {
			return
		}
		checked++
		finding, serr := s.scrubDB(ctx, e)
		if serr != "" {
			lastErr = serr
		}
		if finding != "" {
			corrupt++
			lastFinding = finding
			s.mScrubCorrupt.Inc()
		}
	}

	journalTorn := 0
	st := s.store.Load()
	if st != nil {
		chk, err := st.VerifyJournal()
		if err != nil {
			lastErr = err.Error()
		} else {
			journalTorn = chk.TornBytes
			if chk.TornBytes > 0 {
				// Torn bytes right after a crash are normal (Open salvages
				// them); torn bytes appearing between restarts are rot.
				corrupt++
				s.mScrubCorrupt.Inc()
				lastFinding = fmt.Sprintf("journal: %d byte(s) fail checksum past record %d", chk.TornBytes, chk.Records)
				s.cfg.Logger.Printf("event=scrub_journal_torn bytes=%d records=%d", chk.TornBytes, chk.Records)
			}
		}
		if fails := st.SyncDirFailures(); fails > 0 && lastErr == "" {
			lastErr = fmt.Sprintf("syncdir failures: %d (last: %s)", fails, st.LastSyncDirError())
		}
	}

	s.mScrubPasses.Inc()
	s.scrubMu.Lock()
	s.scrubStat.passes++
	s.scrubStat.lastEnd = time.Now()
	s.scrubStat.checked = checked
	s.scrubStat.corrupt = corrupt
	s.scrubStat.lastFinding = lastFinding
	s.scrubStat.journalTorn = journalTorn
	s.scrubStat.lastError = lastErr
	s.scrubMu.Unlock()
	if corrupt > 0 {
		s.cfg.Logger.Printf("event=scrub_pass checked=%d corrupt=%d dur_ms=%d",
			checked, corrupt, time.Since(start).Milliseconds())
	}
}

// scrubDB verifies one database in memory and on disk and applies the
// repair matrix. It returns a human-readable finding ("" when healthy)
// and an internal error string ("" when none).
func (s *Server) scrubDB(ctx context.Context, e *dbEntry) (finding, internalErr string) {
	// Memory: recompute the content digest and walk the structural
	// invariants. Entries are immutable, so a mismatch means the heap
	// bytes changed underneath us (or the entry was installed corrupt).
	memOK := true
	var memWhy string
	if e.digest.Gen == e.gen {
		if got, ok := integrity.Verify(e.db, e.digest); !ok {
			memOK = false
			memWhy = fmt.Sprintf("memory digest %s, expected %s", got, e.digest)
		}
	}
	if err := faultinject.Point("integrity.digest"); err != nil && memOK {
		memOK = false
		memWhy = "memory digest corrupted (injected)"
	}
	if memOK {
		if err := e.db.CheckConsistency(); err != nil {
			memOK = false
			memWhy = "structural: " + err.Error()
		}
	}
	if !memOK {
		s.mDigestMismatches.Inc()
	}

	// Disk: re-read the snapshot (paced, ledger-charged), CRC-check it by
	// decoding, and verify the decode against the expected digest. The
	// verdict is a tri-state — a skipped or failed check is not evidence
	// of rot, so it must never trigger a heal.
	diskSt := diskUnknown
	var diskDB *graphdb.DB
	diskWhy := "no persistence store attached"
	st := s.store.Load()
	if st != nil {
		diskDB, diskSt, diskWhy = s.scrubDisk(ctx, st, e)
	}

	switch {
	case memOK && (diskSt == diskVerified || st == nil):
		// Healthy (or memory-only). A quarantine whose cause this pass
		// just re-checked — everything verifies — is lifted; an
		// anti-entropy quarantine is not (local verification cannot rule
		// out divergence from the owner).
		if s.dbs.setQuarantine(e.name, e.gen, nil) {
			s.noteRepaired(e.name)
		}
		return "", ""
	case memOK && diskSt == diskUnknown:
		// Disk state unknown (ledger pressure, scrub stopping, stat
		// error): not a finding. Rewriting the snapshot here would churn
		// disk on every pass under memory pressure for no reason; the
		// next pass retries the check.
		if diskWhy != "" && !strings.HasPrefix(diskWhy, "skipped:") {
			return "", fmt.Sprintf("disk check for %s gen %d inconclusive: %s", e.name, e.gen, diskWhy)
		}
		return "", ""
	case memOK && diskSt == diskCorrupt:
		// Disk rot under good memory: self-heal by rewriting the snapshot
		// from the verified in-memory copy. Serving was never wrong (reads
		// come from memory); the rewrite protects the next restart.
		finding = fmt.Sprintf("%s gen %d: disk snapshot corrupt (%s); rewritten from verified memory", e.name, e.gen, diskWhy)
		s.cfg.Logger.Printf("event=scrub_disk_heal db=%s gen=%d reason=%q", e.name, e.gen, diskWhy)
		if err := st.RewriteSnapshot(e.gen, e.db, e.digest.Encode()); err != nil {
			s.mRepairErrors.Inc()
			return finding, fmt.Sprintf("rewriting snapshot for %s: %v", e.name, err)
		}
		s.mRepairs.Inc()
		return finding, ""
	case !memOK && diskSt == diskVerified:
		// Memory rot under good disk: reinstall the verified on-disk copy
		// at the same generation. The plan cache may hold materializations
		// built from the corrupt heap, so the generation's entries are
		// invalidated even though the generation number survives. The
		// reinstall is for generation e.gen only: a concurrent replacement
		// (a newer generation arrived while the scrub read disk) means there
		// is nothing left to heal — no repair is counted or reported. Stats
		// are recomputed from the verified disk copy rather than reusing a
		// catalog possibly built over the corrupt heap.
		healed, _, err := s.install(ctx, installReq{from: fromScrub, name: e.name, db: diskDB,
			gen: e.gen, at: e.registeredAt, digest: e.digest.Encode()})
		if err != nil {
			return "", err.Error()
		}
		if healed == nil {
			return "", ""
		}
		finding = fmt.Sprintf("%s gen %d: in-memory copy corrupt (%s); reinstalled from verified disk", e.name, e.gen, memWhy)
		s.cfg.Logger.Printf("event=scrub_memory_heal db=%s gen=%d reason=%q", e.name, e.gen, memWhy)
		s.mRepairs.Inc()
		return finding, ""
	default:
		// Memory bad with no verified disk copy to heal from (disk also
		// bad, disk state unknown, or no store): quarantine. A replica's
		// next catch-up round re-fetches from the ring owner; an owner (or single
		// node) stays quarantined until re-registration — or until a later
		// pass verifies the disk copy and reinstalls it.
		finding = fmt.Sprintf("%s gen %d: memory fails verification (%s); disk: %s", e.name, e.gen, memWhy, diskWhy)
		s.quarantineEntry(e, finding, true)
		return finding, ""
	}
}

// diskVerdict is scrubDisk's conclusion about the on-disk snapshot.
type diskVerdict int

const (
	// diskUnknown: the check could not run to completion (ledger
	// pressure, scrub shutdown, stat error) — no evidence either way.
	diskUnknown diskVerdict = iota
	// diskVerified: the snapshot read, decoded, and digest-verified.
	diskVerified
	// diskCorrupt: the snapshot is positively damaged (missing, fails
	// CRC/decode, or decodes to content with the wrong digest).
	diskCorrupt
)

// scrubDisk re-reads and fully verifies e's on-disk snapshot. The read
// is charged to the govern ledger (a scrub competes with queries for
// memory, it does not bypass the budget) and paced to ScrubPaceBytes per
// second so a large database cannot monopolize disk bandwidth. The
// decoded database is non-nil exactly when the verdict is diskVerified;
// the reason string explains any other verdict.
func (s *Server) scrubDisk(ctx context.Context, st *persist.Store, e *dbEntry) (*graphdb.DB, diskVerdict, string) {
	size, err := st.SnapshotSize(e.gen)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// A missing snapshot is positive damage: a restart would lose
			// the database. The rewrite heal recreates it.
			return nil, diskCorrupt, fmt.Sprintf("stat: %v", err)
		}
		return nil, diskUnknown, fmt.Sprintf("stat: %v", err)
	}
	res, rerr := s.broker.Reserve(size)
	if rerr != nil {
		// Budget pressure: skip this database's disk check rather than
		// worsen an overload; the next pass retries.
		return nil, diskUnknown, "skipped: " + rerr.Error()
	}
	defer res.Release()
	if !cluster.Sleep(ctx, scrubPaceDelay(size, s.cfg.ScrubPaceBytes)) {
		return nil, diskUnknown, "skipped: scrub stopping"
	}
	raw, err := st.ReadSnapshot(e.gen)
	if err != nil {
		return nil, diskCorrupt, fmt.Sprintf("read: %v", err)
	}
	if ferr := faultinject.Point("integrity.bitflip"); ferr != nil && len(raw) > 0 {
		// Chaos: at-rest rot, one flipped bit in the middle of the file.
		raw[len(raw)/2] ^= 0x04
	}
	db, err := persist.DecodeSnapshot(raw)
	if err != nil {
		return nil, diskCorrupt, fmt.Sprintf("decode: %v", err)
	}
	if e.digest.Gen == e.gen {
		if got, ok := integrity.Verify(db, e.digest); !ok {
			return nil, diskCorrupt, fmt.Sprintf("disk digest %s, expected %s", got, e.digest)
		}
	}
	return db, diskVerified, ""
}

// scrubPaceDelay converts a snapshot size into the pre-read sleep that
// holds the scrub to pace bytes per second. Computed as whole seconds
// plus a float remainder so it cannot overflow int64 the way
// size*time.Second does for snapshots past ~9.2 GB (which yielded a
// negative duration and disabled pacing for exactly the files that need
// it most).
func scrubPaceDelay(size, pace int64) time.Duration {
	if size <= 0 || pace <= 0 {
		return 0
	}
	secs := size / pace
	if secs >= int64(math.MaxInt64/time.Second) {
		return time.Duration(math.MaxInt64)
	}
	rem := time.Duration(float64(size%pace) / float64(pace) * float64(time.Second))
	return time.Duration(secs)*time.Second + rem
}

// antiEntropyOnce performs one comparison round (every AntiEntropyInterval
// in cluster mode): this node's (generation, digest) pairs against each
// database's ring owner. The comparison is one-directional — every non-owner
// holder checks itself against the owner — which converges without
// all-pairs chatter: the owner is the generation authority, and an owner
// that rots is caught by its own scrub.
func (s *Server) antiEntropyOnce(ctx context.Context, c *cluster.Cluster) {
	s.mAERounds.Inc()
	self := c.Self().ID
	for _, e := range s.dbs.list() {
		owner := c.Owner(e.name)
		if owner.ID == self || !c.Healthy(owner.ID) {
			continue
		}
		if err := faultinject.Point("cluster.partition"); err != nil {
			continue
		}
		ictx, cancel := context.WithTimeout(ctx, 10*time.Second)
		info, err := c.ClientFor(owner.ID).Integrity(ictx, e.name)
		cancel()
		if err != nil {
			continue // owner may not hold it yet, or be mid-restart; next round
		}
		if info.Quarantined {
			continue // the owner's own copy is suspect; don't compare against it
		}
		// A generation gap is the catch-up loop's job, not corruption.
		// Divergence is same generation, different content.
		if info.Gen == e.gen && info.Digest != e.digest.String() {
			s.mAEDivergent.Inc()
			s.mDigestMismatches.Inc()
			// Not scrub-liftable: the divergent content is locally
			// self-consistent, so a scrub pass would verify it clean.
			// Only a verified re-install from the owner lifts this.
			s.quarantineEntry(e, fmt.Sprintf(
				"anti-entropy: gen %d digest %s diverges from owner %s's %s",
				e.gen, e.digest, owner.ID, info.Digest), false)
		}
	}
}

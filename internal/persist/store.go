package persist

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecrpq/internal/faultinject"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/trace"
)

// journalName is the registry journal's file name inside the data dir.
const journalName = "registry.journal"

// Entry is one live database reconstructed by replay (or about to be
// persisted).
type Entry struct {
	Name         string
	Gen          uint64
	RegisteredAt time.Time
	// Snapshot is the generation's file, decoded: the database with its
	// catalog and digest, handed to the server verbatim.
	Snapshot
}

// Store is a crash-safe registry persistence layer over one data
// directory. Open replays the journal (truncating a torn tail) and loads
// the live snapshots; AppendRegisterWithSidecars/AppendDropContext durably
// record subsequent mutations. Methods are safe for concurrent use, though the server
// serializes mutations anyway.
type Store struct {
	dir string

	mu      sync.Mutex
	journal *os.File
	closed  bool

	entries  []Entry
	maxGen   uint64
	warnings []string

	// syncDir failure accounting: directory fsync errors are survivable
	// (the fallback is the pre-rename durability level) but must not be
	// invisible — the scrub status and an expvar counter surface them.
	syncDirErrs atomic.Uint64
	syncErrMu   sync.Mutex
	lastSyncErr string
}

// Open prepares dir (creating it if needed), recovers the journal —
// truncating any torn final record — loads the snapshots of the live
// entries, and garbage-collects snapshot files no live entry references.
// Recoverable oddities (torn tail, missing or corrupt snapshot) are
// reported via Warnings, not errors: recovery salvages everything that is
// intact rather than refusing to start.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data dir: %w", err)
	}
	s := &Store{dir: dir}

	jpath := filepath.Join(dir, journalName)
	data, err := os.ReadFile(jpath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("persist: reading journal: %w", err)
	}
	recs, validEnd := scanJournal(data)
	if validEnd < len(data) {
		s.warnings = append(s.warnings, fmt.Sprintf(
			"journal: discarded %d bytes of torn tail after %d valid record(s)", len(data)-validEnd, len(recs)))
		if err := os.Truncate(jpath, int64(validEnd)); err != nil {
			return nil, fmt.Errorf("persist: truncating torn journal tail: %w", err)
		}
	}

	// Fold the records into the live set. Generations are globally
	// monotonic, so "newest wins" is simply "highest generation wins"; a
	// drop removes the entry only if it does not postdate the drop.
	type liveRec struct {
		gen      uint64
		unixNano uint64
		snapFile string
	}
	live := make(map[string]liveRec)
	for _, rec := range recs {
		if rec.gen > s.maxGen {
			s.maxGen = rec.gen
		}
		switch rec.op {
		case opRegister:
			if cur, ok := live[rec.name]; !ok || rec.gen > cur.gen {
				live[rec.name] = liveRec{gen: rec.gen, unixNano: rec.unixNano, snapFile: rec.snapFile}
			}
		case opDrop:
			if cur, ok := live[rec.name]; ok && cur.gen <= rec.gen {
				delete(live, rec.name)
			}
		}
	}

	referenced := make(map[string]bool, len(live))
	for name, lr := range live {
		referenced[lr.snapFile] = true
		raw, err := os.ReadFile(filepath.Join(dir, lr.snapFile))
		if err != nil {
			s.warnings = append(s.warnings, fmt.Sprintf("dropping %q: snapshot %s unreadable: %v", name, lr.snapFile, err))
			continue
		}
		snap, err := Decode(raw)
		if err != nil {
			s.warnings = append(s.warnings, fmt.Sprintf("dropping %q: snapshot %s corrupt: %v", name, lr.snapFile, err))
			continue
		}
		s.entries = append(s.entries, Entry{Name: name, Gen: lr.gen, RegisteredAt: time.Unix(0, int64(lr.unixNano)), Snapshot: snap})
	}
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].Gen < s.entries[j].Gen })

	// GC: the files of replaced/dropped registrations (and the sidecars
	// older versions wrote beside a snapshot) and temp files from
	// interrupted writes. Failures here cost disk, not correctness.
	if dents, err := os.ReadDir(dir); err == nil {
		for _, de := range dents {
			n := de.Name()
			if strings.HasPrefix(n, "db-") && !referenced[n] || strings.HasPrefix(n, ".tmp-") {
				_ = os.Remove(filepath.Join(dir, n))
			}
		}
	}

	j, err := os.OpenFile(jpath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening journal for append: %w", err)
	}
	s.journal = j
	return s, nil
}

// Dir returns the data directory the store manages.
func (s *Store) Dir() string { return s.dir }

// TakeEntries hands over the live databases reconstructed by Open, ordered
// by generation, once: the store drops its reference, so a restored graph
// is freed when its registration is replaced or dropped, and a later call
// returns nil.
func (s *Store) TakeEntries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	ents := s.entries
	s.entries = nil
	return ents
}

// MaxGen returns the highest generation seen anywhere in the journal
// (including replaced and dropped registrations), the floor for the
// registry's counter after a restart.
func (s *Store) MaxGen() uint64 { return s.maxGen }

// Warnings returns human-readable notes about what recovery had to repair
// or discard (torn journal tail, unreadable snapshots).
func (s *Store) Warnings() []string { return s.warnings }

// snapFileName names the snapshot for a generation. Generations are
// globally unique, so the name is too.
func snapFileName(gen uint64) string { return fmt.Sprintf("db-%016x.snap", gen) }

// AppendRegisterWithSidecars durably records a registration: the snapshot,
// whose footer carries the encoded statistics catalog and content digest
// (the "sidecars" of the name, once files of their own), is published
// (temp file, fsync, atomic rename, directory fsync), then the journal
// record referencing it is appended and fsynced. On error the registration
// is not recorded; any temp file is cleaned up on the next Open. The
// catalog and digest are advisory — the server recomputes what does not
// decode — and the digest lets a restart and the background scrub verify
// on-disk and in-memory content without recomputing a digest they cannot
// trust. When ctx carries an internal/trace trace, the snapshot write and
// journal append are recorded as spans (the fsyncs dominate register
// latency, and the slow-query log should say so rather than blaming
// evaluation).
func (s *Store) AppendRegisterWithSidecars(ctx context.Context, name string, gen uint64, registeredAt time.Time, db *graphdb.DB, statsJSON, digest []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	_, ssp := trace.StartSpan(ctx, "persist/snapshot_write")
	err := s.writeSnapshot(gen, Snapshot{DB: db, Stats: statsJSON, Digest: digest})
	ssp.End()
	if err != nil {
		return err
	}
	rec := journalRecord{
		op:       opRegister,
		gen:      gen,
		unixNano: uint64(registeredAt.UnixNano()),
		name:     name,
		snapFile: snapFileName(gen),
	}
	_, jsp := trace.StartSpan(ctx, "persist/journal_append")
	err = s.appendRecord(rec)
	jsp.End()
	return err
}

// AppendDropContext durably records that the registration with the given
// generation was dropped, with the journal append traced as in
// AppendRegisterWithSidecars.
func (s *Store) AppendDropContext(ctx context.Context, name string, gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	_, jsp := trace.StartSpan(ctx, "persist/journal_append")
	err := s.appendRecord(journalRecord{op: opDrop, gen: gen, name: name})
	jsp.End()
	if err != nil {
		return err
	}
	// The snapshot is now unreferenced; best-effort removal (Open GCs
	// leftovers).
	_ = os.Remove(filepath.Join(s.dir, snapFileName(gen)))
	return nil
}

// writeSnapshot publishes snap as gen's file atomically: temp file, fsync,
// rename, directory fsync, so a reader sees the old file or the new one,
// never a torn one. Open's ".tmp-" GC sweeps any orphan a crash leaves.
// persist.snapshot.rename is the fault point for a crash between the temp
// write and the rename: the temp stays behind exactly as a real crash would
// leave it, and the previously published file, if any, is untouched.
func (s *Store) writeSnapshot(gen uint64, snap Snapshot) error {
	if err := faultinject.Point("persist.snapshot.write"); err != nil {
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	fileName := snapFileName(gen)
	tmp := filepath.Join(s.dir, ".tmp-"+fileName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating snapshot temp file: %w", err)
	}
	if _, err := f.Write(snap.Encode()); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("persist: closing snapshot: %w", err)
	}
	if err := faultinject.Point("persist.snapshot.rename"); err != nil {
		return fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, fileName)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	s.syncDir()
	return nil
}

// appendRecord writes one journal record and fsyncs. The record bytes go
// out in a single Write so the only partial-write shape a crash can leave
// is a torn tail, which replay truncates.
func (s *Store) appendRecord(rec journalRecord) error {
	if err := faultinject.Point("persist.journal.append"); err != nil {
		return fmt.Errorf("persist: appending journal record: %w", err)
	}
	if _, err := s.journal.Write(encodeRecord(rec)); err != nil {
		return fmt.Errorf("persist: appending journal record: %w", err)
	}
	if err := faultinject.Point("persist.journal.sync"); err != nil {
		return fmt.Errorf("persist: syncing journal: %w", err)
	}
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("persist: syncing journal: %w", err)
	}
	return nil
}

// syncDir fsyncs the data directory so a rename survives power loss.
// Errors do not fail the write — directory fsync is unsupported on some
// filesystems, and the fallback is merely the pre-rename durability
// level — but they are counted and the last one retained, so an operator
// watching the scrub status or the persist expvar sees a filesystem that
// quietly refuses durability instead of nothing at all.
func (s *Store) syncDir() {
	d, err := os.Open(s.dir)
	if err != nil {
		s.noteSyncDirErr(err)
		return
	}
	if err := d.Sync(); err != nil {
		s.noteSyncDirErr(err)
	}
	_ = d.Close()
}

func (s *Store) noteSyncDirErr(err error) {
	s.syncDirErrs.Add(1)
	s.syncErrMu.Lock()
	s.lastSyncErr = err.Error()
	s.syncErrMu.Unlock()
}

// SyncDirFailures returns how many directory fsyncs have failed since
// Open.
func (s *Store) SyncDirFailures() uint64 { return s.syncDirErrs.Load() }

// LastSyncDirError returns the most recent directory-fsync failure
// message, "" when none has occurred.
func (s *Store) LastSyncDirError() string {
	s.syncErrMu.Lock()
	defer s.syncErrMu.Unlock()
	return s.lastSyncErr
}

// SnapshotSize returns the on-disk size of the snapshot for gen, for
// scrub pacing and ledger charging before the bytes are read.
func (s *Store) SnapshotSize(gen uint64) (int64, error) {
	fi, err := os.Stat(filepath.Join(s.dir, snapFileName(gen)))
	if err != nil {
		return 0, fmt.Errorf("persist: statting snapshot: %w", err)
	}
	return fi.Size(), nil
}

// ReadSnapshot re-reads the raw snapshot bytes for gen from disk. The
// caller decodes (DecodeSnapshot CRC-checks); this is the scrub's view of
// what a restart would actually load, as opposed to what memory holds.
func (s *Store) ReadSnapshot(gen uint64) ([]byte, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, snapFileName(gen)))
	if err != nil {
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	return raw, nil
}

// RewriteSnapshot re-publishes the whole file of an existing generation,
// catalog and digest included, from a known-good in-memory copy: the
// self-heal path when the scrub finds disk rot under a verified in-memory
// database. The same atomic temp+rename discipline applies, so a crash
// mid-heal leaves either the old corrupt file (scrub finds it again) or the
// healed one — never a torn snapshot.
func (s *Store) RewriteSnapshot(gen uint64, snap Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	return s.writeSnapshot(gen, snap)
}

// JournalCheck is VerifyJournal's report.
type JournalCheck struct {
	// Records is how many intact records the journal currently holds.
	Records int
	// TornBytes is how many trailing bytes fail their checksum or frame
	// (zero on a healthy journal; a crash mid-append leaves some until
	// the next Open truncates them).
	TornBytes int
}

// VerifyJournal re-reads the journal from disk and re-validates every
// record checksum. Used by the background scrub; a non-zero TornBytes
// between restarts means bytes that were once fsynced no longer check
// out — bit rot, not a crash artifact.
//
// Only the length snapshot happens under the store mutex (appends hold
// it too, so the recorded length always sits on a record boundary); the
// file read and scan run outside it, ignoring bytes past that length.
// A concurrent append can therefore never masquerade as a torn tail,
// and a scrub pass never stalls registrations and drops for the
// duration of a full journal read.
func (s *Store) VerifyJournal() (JournalCheck, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JournalCheck{}, fmt.Errorf("persist: store is closed")
	}
	fi, err := s.journal.Stat()
	s.mu.Unlock()
	if err != nil {
		return JournalCheck{}, fmt.Errorf("persist: statting journal: %w", err)
	}
	limit := fi.Size()
	data, err := os.ReadFile(filepath.Join(s.dir, journalName))
	if err != nil {
		if os.IsNotExist(err) {
			return JournalCheck{}, nil
		}
		return JournalCheck{}, fmt.Errorf("persist: reading journal: %w", err)
	}
	if int64(len(data)) > limit {
		data = data[:limit]
	}
	recs, validEnd := scanJournal(data)
	return JournalCheck{Records: len(recs), TornBytes: len(data) - validEnd}, nil
}

// Close releases the journal handle. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.journal.Close()
}

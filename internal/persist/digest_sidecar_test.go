package persist

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ecrpq/internal/integrity"
)

func TestDigestSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db := buildDB(t, 6)
	dg := integrity.Compute(db, 3).Encode()
	statsJSON := []byte(`{"generation":3}`)
	if err := s.AppendRegisterWithSidecars(context.Background(), "g", 3, time.Unix(0, 100), db, statsJSON, dg); err != nil {
		t.Fatalf("AppendRegisterWithSidecars: %v", err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	ents := s2.Entries()
	if len(ents) != 1 {
		t.Fatalf("entries = %d, want 1", len(ents))
	}
	if !bytes.Equal(ents[0].Digest, dg) {
		t.Errorf("replayed digest = %x, want %x", ents[0].Digest, dg)
	}
	if !bytes.Equal(ents[0].Stats, statsJSON) {
		t.Errorf("replayed stats = %q, want %q", ents[0].Stats, statsJSON)
	}
	// The replayed sidecar must decode to the digest of the replayed DB.
	want, err := integrity.Decode(ents[0].Digest)
	if err != nil {
		t.Fatalf("decoding replayed digest: %v", err)
	}
	if got, ok := integrity.Verify(ents[0].DB, want); !ok {
		t.Errorf("replayed db digests to %v, sidecar says %v", got, want)
	}
	// Drop removes the digest sidecar with the snapshot.
	if err := s2.AppendDropContext(context.Background(), "g", 3); err != nil {
		t.Fatalf("AppendDrop: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, digestFileName(3))); !os.IsNotExist(err) {
		t.Errorf("dropped digest sidecar survived: %v", err)
	}
}

// TestSidecarOrphanTempIgnored simulates a crash between writeSidecar's
// temp-file write and its rename: the orphan ".tmp-" file is left on
// disk next to the previously published sidecar. Reopen must GC the
// orphan and keep serving the prior sidecar's contents.
func TestSidecarOrphanTempIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db := buildDB(t, 5)
	dg := integrity.Compute(db, 1).Encode()
	if err := s.AppendRegisterWithSidecars(context.Background(), "g", 1, time.Unix(0, 1), db, []byte(`{"generation":1}`), dg); err != nil {
		t.Fatalf("register: %v", err)
	}
	s.Close()

	// The crash artifact: a half-written replacement sidecar that never
	// got renamed over the real one.
	orphan := filepath.Join(dir, ".tmp-"+digestFileName(1))
	if err := os.WriteFile(orphan, []byte("torn garbage"), 0o644); err != nil {
		t.Fatalf("planting orphan: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with orphan: %v", err)
	}
	defer s2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan temp sidecar survived reopen: %v", err)
	}
	ents := s2.Entries()
	if len(ents) != 1 {
		t.Fatalf("entries = %d, want 1", len(ents))
	}
	if !bytes.Equal(ents[0].Digest, dg) {
		t.Errorf("prior sidecar not preserved: got %x, want %x", ents[0].Digest, dg)
	}
}

// TestScrubSupportMethods exercises the store surface the background
// scrub drives: sizing and re-reading snapshots, self-healing a rotted
// snapshot from a verified in-memory copy, and re-validating the
// journal.
func TestScrubSupportMethods(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	db := buildDB(t, 8)
	dg := integrity.Compute(db, 1).Encode()
	if err := s.AppendRegisterWithSidecars(context.Background(), "g", 1, time.Unix(0, 1), db, nil, dg); err != nil {
		t.Fatalf("register: %v", err)
	}

	size, err := s.SnapshotSize(1)
	if err != nil {
		t.Fatalf("SnapshotSize: %v", err)
	}
	raw, err := s.ReadSnapshot(1)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if int64(len(raw)) != size {
		t.Errorf("SnapshotSize = %d, ReadSnapshot returned %d bytes", size, len(raw))
	}
	if _, err := DecodeSnapshot(raw); err != nil {
		t.Fatalf("fresh snapshot does not decode: %v", err)
	}

	// Rot the snapshot on disk; the CRC must catch it.
	path := filepath.Join(dir, snapFileName(1))
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("planting rot: %v", err)
	}
	rotted, err := s.ReadSnapshot(1)
	if err != nil {
		t.Fatalf("ReadSnapshot after rot: %v", err)
	}
	if _, err := DecodeSnapshot(rotted); err == nil {
		t.Fatal("DecodeSnapshot accepted a bit-flipped snapshot")
	}

	// Self-heal from the in-memory copy and verify the disk is good again.
	if err := s.RewriteSnapshot(1, db, dg); err != nil {
		t.Fatalf("RewriteSnapshot: %v", err)
	}
	healed, err := s.ReadSnapshot(1)
	if err != nil {
		t.Fatalf("ReadSnapshot after heal: %v", err)
	}
	if _, err := DecodeSnapshot(healed); err != nil {
		t.Fatalf("healed snapshot does not decode: %v", err)
	}

	chk, err := s.VerifyJournal()
	if err != nil {
		t.Fatalf("VerifyJournal: %v", err)
	}
	if chk.Records != 1 || chk.TornBytes != 0 {
		t.Errorf("VerifyJournal = %+v, want 1 record and 0 torn bytes", chk)
	}
	// Rot the journal tail in place (no reopen, so nothing truncates it):
	// the scrub's view must report the torn bytes.
	jpath := filepath.Join(dir, journalName)
	if err := appendBytes(jpath, []byte{0xde, 0xad}); err != nil {
		t.Fatalf("appending garbage: %v", err)
	}
	chk, err = s.VerifyJournal()
	if err != nil {
		t.Fatalf("VerifyJournal after rot: %v", err)
	}
	if chk.Records != 1 || chk.TornBytes != 2 {
		t.Errorf("VerifyJournal = %+v, want 1 record and 2 torn bytes", chk)
	}
}

func appendBytes(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestVerifyJournalConcurrentAppends: the scrub's journal verification
// must neither block appends for the duration of a full journal read nor
// misreport a concurrent append as a torn tail. The length snapshot taken
// under the mutex sits on a record boundary, so every check below must
// see zero torn bytes no matter how the scan interleaves with writes.
func TestVerifyJournalConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	const appends = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < appends; i++ {
			if err := s.AppendDropContext(context.Background(), fmt.Sprintf("g%d", i), uint64(i+1)); err != nil {
				t.Errorf("AppendDrop %d: %v", i, err)
				return
			}
		}
	}()
	for {
		chk, err := s.VerifyJournal()
		if err != nil {
			t.Fatalf("VerifyJournal during appends: %v", err)
		}
		if chk.TornBytes != 0 {
			t.Fatalf("concurrent append misread as torn tail: %+v", chk)
		}
		select {
		case <-done:
			chk, err := s.VerifyJournal()
			if err != nil {
				t.Fatalf("VerifyJournal after appends: %v", err)
			}
			if chk.Records != appends || chk.TornBytes != 0 {
				t.Errorf("VerifyJournal = %+v, want %d records and 0 torn bytes", chk, appends)
			}
			return
		default:
		}
	}
}

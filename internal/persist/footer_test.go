package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"ecrpq/internal/integrity"
)

// The catalog and the digest were once sidecar files beside the snapshot;
// they now ride in its footer, and the two round-trip tests keep their names.

// TestStatsSidecarRoundTrip: a catalog registered without a digest comes
// back from the snapshot footer, with a nil digest section.
func TestStatsSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	statsJSON := []byte(`{"generation":3,"vertices":6}`)
	if err := s.AppendRegisterWithSidecars(context.Background(), "g", 3, time.Unix(0, 100), buildDB(t, 5), statsJSON, nil); err != nil {
		t.Fatalf("AppendRegisterWithSidecars: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	ents := s2.TakeEntries()
	if len(ents) != 1 {
		t.Fatalf("entries = %d, want 1", len(ents))
	}
	if !bytes.Equal(ents[0].Stats, statsJSON) {
		t.Errorf("replayed stats = %q, want %q", ents[0].Stats, statsJSON)
	}
	if ents[0].Digest != nil {
		t.Errorf("replayed digest = %x, want nil", ents[0].Digest)
	}
}

// TestDigestSidecarRoundTrip: the catalog and digest a registration hands
// the store come back from the one file Open reads, and a drop removes that
// file.
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
	ents := s2.TakeEntries()
	if len(ents) != 1 {
		t.Fatalf("entries = %d, want 1", len(ents))
	}
	if !bytes.Equal(ents[0].Digest, dg) {
		t.Errorf("replayed digest = %x, want %x", ents[0].Digest, dg)
	}
	if !bytes.Equal(ents[0].Stats, statsJSON) {
		t.Errorf("replayed stats = %q, want %q", ents[0].Stats, statsJSON)
	}
	// The replayed footer must decode to the digest of the replayed DB.
	want, err := integrity.Decode(ents[0].Digest)
	if err != nil {
		t.Fatalf("decoding replayed digest: %v", err)
	}
	if got, ok := integrity.Verify(ents[0].DB, want); !ok {
		t.Errorf("replayed db digests to %v, footer says %v", got, want)
	}
	if err := s2.AppendDropContext(context.Background(), "g", 3); err != nil {
		t.Fatalf("AppendDrop: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFileName(3))); !os.IsNotExist(err) {
		t.Errorf("dropped snapshot survived: %v", err)
	}
}

// TestFooterOptional: a registration with no catalog and no digest replays
// with nil sections, which the server reads as "recompute".
func TestFooterOptional(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := appendRegister(s, "g", 1, time.Unix(0, 1), buildDB(t, 4)); err != nil {
		t.Fatalf("AppendRegister: %v", err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if ents := s2.TakeEntries(); len(ents) != 1 || ents[0].Stats != nil || ents[0].Digest != nil {
		t.Errorf("entries = %+v, want one entry with nil stats and digest", ents)
	}
}

// TestOneFilePerGeneration registers, replaces and drops several names, with
// the sidecar files an older version wrote beside its snapshots planted in
// the data dir, and reopens: the dir then holds the journal and one snapshot
// per live generation, nothing else.
func TestOneFilePerGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx := context.Background()
	gen := uint64(0)
	register := func(name string) {
		gen++
		db := buildDB(t, 3+int(gen))
		stats := []byte(fmt.Sprintf(`{"generation":%d}`, gen))
		if err := s.AppendRegisterWithSidecars(ctx, name, gen, time.Unix(0, int64(gen)), db, stats, integrity.Compute(db, gen).Encode()); err != nil {
			t.Fatalf("register %s gen %d: %v", name, gen, err)
		}
	}
	register("a")
	register("b")
	register("c")
	register("a") // replaces gen 1
	if err := s.AppendDropContext(ctx, "b", 2); err != nil {
		t.Fatal(err)
	}
	register("d")
	register("d") // replaces gen 5
	for _, old := range []string{"db-0000000000000001.stats", "db-0000000000000003.digest", "db-0000000000000007.stats"} {
		if err := os.WriteFile(filepath.Join(dir, old), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	var live []string
	for _, e := range s2.TakeEntries() {
		live = append(live, snapFileName(e.Gen))
		if e.Stats == nil || e.Digest == nil {
			t.Errorf("%s gen %d replayed without its footer", e.Name, e.Gen)
		}
	}
	dents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, de := range dents {
		got = append(got, de.Name())
	}
	want := append([]string{journalName}, live...)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("data dir holds %v, want %v", got, want)
	}
	if len(live) != 3 {
		t.Errorf("live generations %v, want a, c and d's", live)
	}
}

// TestSnapshotOrphanTempIgnored simulates a crash between the snapshot's
// temp-file write and its rename: the orphan ".tmp-" file is left on disk
// next to the previously published snapshot. Reopen must GC the orphan and
// keep serving the prior file's footer.
func TestSnapshotOrphanTempIgnored(t *testing.T) {
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

	// The crash artifact: a half-written replacement that never got
	// renamed over the real one.
	orphan := filepath.Join(dir, ".tmp-"+snapFileName(1))
	if err := os.WriteFile(orphan, []byte("torn garbage"), 0o644); err != nil {
		t.Fatalf("planting orphan: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with orphan: %v", err)
	}
	defer s2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan temp snapshot survived reopen: %v", err)
	}
	ents := s2.TakeEntries()
	if len(ents) != 1 {
		t.Fatalf("entries = %d, want 1", len(ents))
	}
	if !bytes.Equal(ents[0].Digest, dg) {
		t.Errorf("prior footer not preserved: got %x, want %x", ents[0].Digest, dg)
	}
}

// TestSnapshotV1Fixture: a version-1 file, written by the encoder before the
// footer existed, still decodes — to the same graph, with nil sections — and
// a data dir that holds it still opens.
func TestSnapshotV1Fixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1", snapFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(raw[len(snapMagic):]); v != 1 {
		t.Fatalf("fixture is version %d", v)
	}
	snap, err := Decode(raw)
	if err != nil {
		t.Fatalf("decoding the v1 fixture: %v", err)
	}
	if err := sameDB(snap.DB, buildDB(t, 5)); err != nil {
		t.Errorf("v1 fixture: %v", err)
	}
	if snap.Stats != nil || snap.Digest != nil {
		t.Errorf("v1 fixture decoded with sections %q, %q", snap.Stats, snap.Digest)
	}

	dir := t.TempDir()
	for _, f := range []string{journalName, snapFileName(1)} {
		b, err := os.ReadFile(filepath.Join("testdata", "v1", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if ents := s.TakeEntries(); len(ents) != 1 || ents[0].Name != "g" || ents[0].Gen != 1 || ents[0].Stats != nil || ents[0].Digest != nil {
		t.Fatalf("v1 data dir opened to %+v, want g at gen 1 with no footer", ents)
	}
	if w := s.Warnings(); len(w) != 0 {
		t.Errorf("v1 data dir opened with warnings %q", w)
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

	// Self-heal from the in-memory copy and verify the disk is good again,
	// footer included.
	stats := []byte(`{"generation":1}`)
	if err := s.RewriteSnapshot(1, Snapshot{DB: db, Stats: stats, Digest: dg}); err != nil {
		t.Fatalf("RewriteSnapshot: %v", err)
	}
	healed, err := s.ReadSnapshot(1)
	if err != nil {
		t.Fatalf("ReadSnapshot after heal: %v", err)
	}
	if snap, err := Decode(healed); err != nil {
		t.Fatalf("healed snapshot does not decode: %v", err)
	} else if !bytes.Equal(snap.Stats, stats) || !bytes.Equal(snap.Digest, dg) {
		t.Errorf("healed footer %q, %x, want %q, %x", snap.Stats, snap.Digest, stats, dg)
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

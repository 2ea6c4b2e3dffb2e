//go:build faultinject

package persist

// Crash-window chaos for the register path. Replication (and the
// enumerate staleness contract it carries) leans on one property of this
// package: generations recovered after any crash are exactly the
// journaled ones, and a reopened store never re-issues a generation that
// was ever live. These tests crash inside AppendRegister's window —
// after the snapshot file is on disk but before the journal record that
// would make it live — and assert recovery keeps that property.

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ecrpq/internal/faultinject"
)

// TestChaosCrashBetweenSnapshotAndJournal: the snapshot write succeeds,
// the journal append fails (the process "crashed" between the two). The
// failed register must not exist after reopen, the orphan snapshot must
// be GC'd, and the generation counter must stay monotonic: MaxGen is
// unchanged, and the next register's generation is above every live one.
func TestChaosCrashBetweenSnapshotAndJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Two committed registers establish the pre-crash state.
	if err := appendRegister(st, "alpha", 1, time.Unix(100, 0), buildDB(t, 4)); err != nil {
		t.Fatal(err)
	}
	if err := appendRegister(st, "beta", 2, time.Unix(200, 0), buildDB(t, 5)); err != nil {
		t.Fatal(err)
	}

	// Crash window: snapshot lands, journal record does not.
	faultinject.EnableSite("persist.journal.append", faultinject.ModeError, 1.0)
	err = appendRegister(st, "gamma", 3, time.Unix(300, 0), buildDB(t, 6))
	faultinject.Disable()
	if err == nil {
		t.Fatal("AppendRegister succeeded despite the injected journal crash")
	}
	if _, serr := os.Stat(filepath.Join(dir, snapFileName(3))); serr != nil {
		t.Fatalf("test arranged the wrong crash window: snapshot 3 missing (%v)", serr)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("closing crashed store: %v", err)
	}

	// Clean reopen: salvage keeps exactly the journaled state.
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopening after crash: %v", err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Errorf("closing reopened store: %v", err)
		}
	}()
	entries := st2.Entries()
	if len(entries) != 2 {
		t.Fatalf("recovered %d entries, want 2 (the committed ones)", len(entries))
	}
	maxLive := uint64(0)
	for _, e := range entries {
		if e.Name == "gamma" {
			t.Error("the crashed register resurrected on reopen")
		}
		if e.Gen > maxLive {
			maxLive = e.Gen
		}
	}
	if maxLive != 2 {
		t.Errorf("max live generation = %d, want 2", maxLive)
	}
	// Generation monotonicity: the journal's MaxGen is the pre-crash max
	// (the orphan snapshot must not bump it — its generation was never
	// acknowledged, so reissuing 3 later is sound and replication-safe).
	if st2.MaxGen() != 2 {
		t.Errorf("MaxGen after reopen = %d, want 2", st2.MaxGen())
	}
	// The orphan snapshot is GC'd on reopen, not salvaged as live state.
	if _, err := os.Stat(filepath.Join(dir, snapFileName(3))); !os.IsNotExist(err) {
		t.Errorf("orphan snapshot survived reopen (stat err=%v)", err)
	}

	// A register after recovery mints a generation above every live one
	// and lands durably — the exact invariant a replica applying shipped
	// records with installWithGen relies on. Reusing generation 3 is
	// legal precisely because the crashed register was never journaled.
	nextGen := st2.MaxGen() + 1
	if err := appendRegister(st2, "delta", nextGen, time.Unix(400, 0), buildDB(t, 3)); err != nil {
		t.Fatalf("register after recovery: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer func() {
		if err := st3.Close(); err != nil {
			t.Errorf("closing third store: %v", err)
		}
	}()
	if st3.MaxGen() != nextGen {
		t.Errorf("MaxGen after post-recovery register = %d, want %d", st3.MaxGen(), nextGen)
	}
	found := false
	for _, e := range st3.Entries() {
		if e.Name == "delta" && e.Gen == nextGen {
			found = true
		}
	}
	if !found {
		t.Errorf("post-recovery register missing after replay: %v", st3.Entries())
	}
}

// TestChaosCrashBeforeSnapshotRename: the crash lands one step earlier
// (before the temp file is published); no .tmp- residue may survive a
// reopen and the same monotonicity guarantees hold.
func TestChaosCrashBeforeSnapshotRename(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRegister(st, "alpha", 1, time.Unix(100, 0), buildDB(t, 4)); err != nil {
		t.Fatal(err)
	}

	faultinject.EnableSite("persist.snapshot.rename", faultinject.ModeError, 1.0)
	err = appendRegister(st, "beta", 2, time.Unix(200, 0), buildDB(t, 5))
	faultinject.Disable()
	if err == nil {
		t.Fatal("AppendRegister succeeded despite the injected rename crash")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("closing crashed store: %v", err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopening after crash: %v", err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Errorf("closing reopened store: %v", err)
		}
	}()
	if n := len(st2.Entries()); n != 1 {
		t.Fatalf("recovered %d entries, want 1", n)
	}
	if st2.MaxGen() != 1 {
		t.Errorf("MaxGen after reopen = %d, want 1", st2.MaxGen())
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf(".tmp- files survived reopen: %v", leftovers)
	}
}

// TestChaosCrashBeforeSidecarRename crashes a register between a
// sidecar's temp-file write and its rename. The register fails (the
// journal record was never written), the orphan temp is left behind
// exactly as a real crash would leave it, and reopen GCs the orphan
// while keeping the previously committed registration — and its earlier
// sidecars — fully intact.
func TestChaosCrashBeforeSidecarRename(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := buildDB(t, 4)
	stats1 := []byte(`{"generation":1}`)
	if err := st.AppendRegisterWithSidecars(context.Background(), "alpha", 1, time.Unix(100, 0), db, stats1, []byte("DG1-placeholder-bytes-ok")); err != nil {
		t.Fatal(err)
	}

	faultinject.EnableSite("persist.sidecar.rename", faultinject.ModeError, 1.0)
	err = st.AppendRegisterWithSidecars(context.Background(), "alpha", 2, time.Unix(200, 0), buildDB(t, 5), []byte(`{"generation":2}`), []byte("DG2"))
	faultinject.Disable()
	if err == nil {
		t.Fatal("AppendRegisterWithSidecars succeeded despite the injected sidecar crash")
	}
	// The crash left the gen-2 temp sidecar orphaned on disk.
	leftovers, globErr := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if globErr != nil {
		t.Fatal(globErr)
	}
	if len(leftovers) == 0 {
		t.Fatal("test arranged the wrong crash window: no orphan temp sidecar on disk")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("closing crashed store: %v", err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopening after crash: %v", err)
	}
	defer st2.Close()
	ents := st2.Entries()
	if len(ents) != 1 || ents[0].Gen != 1 {
		t.Fatalf("recovered %d entries (gen %v), want the committed gen-1 registration", len(ents), ents)
	}
	if string(ents[0].Stats) != string(stats1) {
		t.Errorf("gen-1 stats sidecar damaged: %q", ents[0].Stats)
	}
	if string(ents[0].Digest) != "DG1-placeholder-bytes-ok" {
		t.Errorf("gen-1 digest sidecar damaged: %q", ents[0].Digest)
	}
	leftovers, globErr = filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if globErr != nil {
		t.Fatal(globErr)
	}
	if len(leftovers) != 0 {
		t.Errorf(".tmp- files survived reopen: %v", leftovers)
	}
}

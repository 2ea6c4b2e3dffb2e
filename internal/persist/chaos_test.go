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
	"strings"
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
	entries := st2.TakeEntries()
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
	ents := st3.TakeEntries()
	for _, e := range ents {
		if e.Name == "delta" && e.Gen == nextGen {
			found = true
		}
	}
	if !found {
		t.Errorf("post-recovery register missing after replay: %v", ents)
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
	if n := len(st2.TakeEntries()); n != 1 {
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

// TestChaosOnePublishPerRegistration: with every site counted and none
// firing, each registration — with a catalog and a digest, or without —
// crosses persist.snapshot.rename exactly once and no other rename site:
// one generation is one file, published once.
func TestChaosOnePublishPerRegistration(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	faultinject.Enable(1, 0)
	defer faultinject.Disable()
	const registrations = 4
	for gen := uint64(1); gen <= registrations; gen++ {
		db := buildDB(t, 3+int(gen))
		var stats, digest []byte
		if gen%2 == 0 {
			stats, digest = []byte(`{"generation":2}`), []byte("digest")
		}
		if err := st.AppendRegisterWithSidecars(context.Background(), "g", gen, time.Unix(int64(gen), 0), db, stats, digest); err != nil {
			t.Fatal(err)
		}
	}
	for site, ss := range faultinject.Stats() {
		switch {
		case site == "persist.snapshot.rename" || site == "persist.snapshot.write" || site == "persist.journal.sync":
			if ss.Checks != registrations {
				t.Errorf("%s: %d checks over %d registrations", site, ss.Checks, registrations)
			}
		case strings.HasSuffix(site, ".rename"):
			t.Errorf("a registration crosses a second rename site %s (%d checks)", site, ss.Checks)
		}
	}
	if got := faultinject.Stats()["persist.snapshot.rename"].Checks; got != registrations {
		t.Errorf("persist.snapshot.rename: %d checks, want %d", got, registrations)
	}
}

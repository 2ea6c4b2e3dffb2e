package persist

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestStatsSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db := buildDB(t, 5)
	statsJSON := []byte(`{"generation":3,"vertices":6}`)
	if err := s.AppendRegisterWithSidecars(context.Background(), "g", 3, time.Unix(0, 100), db, statsJSON, nil); err != nil {
		t.Fatalf("AppendRegisterWithStats: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	ents := s2.Entries()
	if len(ents) != 1 {
		t.Fatalf("entries = %d, want 1", len(ents))
	}
	if string(ents[0].Stats) != string(statsJSON) {
		t.Errorf("replayed stats = %q, want %q", ents[0].Stats, statsJSON)
	}
}

func TestStatsSidecarOptional(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db := buildDB(t, 4)
	// Plain AppendRegister (nil stats): replay yields a nil Stats field.
	if err := appendRegister(s, "g", 1, time.Unix(0, 1), db); err != nil {
		t.Fatalf("AppendRegister: %v", err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if ents := s2.Entries(); len(ents) != 1 || ents[0].Stats != nil {
		t.Errorf("entries = %+v, want one entry with nil stats", ents)
	}
}

func TestStatsSidecarGCAndDrop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db := buildDB(t, 4)
	ctx := context.Background()
	if err := s.AppendRegisterWithSidecars(ctx, "g", 1, time.Unix(0, 1), db, []byte(`{"generation":1}`), nil); err != nil {
		t.Fatalf("register gen 1: %v", err)
	}
	// Replace: gen 1 becomes stale.
	if err := s.AppendRegisterWithSidecars(ctx, "g", 2, time.Unix(0, 2), db, []byte(`{"generation":2}`), nil); err != nil {
		t.Fatalf("register gen 2: %v", err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, statsFileName(1))); !os.IsNotExist(err) {
		t.Errorf("stale sidecar for gen 1 survived GC: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, statsFileName(2))); err != nil {
		t.Errorf("live sidecar for gen 2 missing: %v", err)
	}
	// Drop removes the sidecar immediately.
	if err := s2.AppendDropContext(context.Background(), "g", 2); err != nil {
		t.Fatalf("AppendDrop: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, statsFileName(2))); !os.IsNotExist(err) {
		t.Errorf("dropped sidecar survived: %v", err)
	}
	s2.Close()
}

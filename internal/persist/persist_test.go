package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/workload"
)

// appendRegister journals a registration without sidecars, which is all the
// journal and snapshot tests need.
func appendRegister(st *Store, name string, gen uint64, at time.Time, db *graphdb.DB) error {
	return st.AppendRegisterWithSidecars(context.Background(), name, gen, at, db, nil, nil)
}

// buildDB makes a deterministic database with named and anonymous
// vertices: n named vertices in an a/b ring plus one anonymous vertex.
func buildDB(t testing.TB, n int) *graphdb.DB {
	t.Helper()
	db := graphdb.New(alphabet.MustNew("a", "b"))
	for i := 0; i < n; i++ {
		db.MustAddVertex(fmt.Sprintf("n%d", i))
	}
	anon := db.MustAddVertex("")
	for i := 0; i < n; i++ {
		db.MustAddEdge(i, 0, (i+1)%n)
		db.MustAddEdge(i, 1, (i*3+1)%n)
	}
	db.MustAddEdge(anon, 0, 0)
	return db
}

// sameDB compares two databases as their users see them: alphabet, raw names
// and ids, edge count, the element order of every Out, In and Forward().Succ
// list, and internal consistency.
func sameDB(a, b *graphdb.DB) error {
	if got, want := a.Alphabet().String(), b.Alphabet().String(); got != want {
		return fmt.Errorf("alphabet %q != %q", got, want)
	}
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("size %d/%d != %d/%d", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	af, bf := a.Forward(), b.Forward()
	for v := 0; v < a.NumVertices(); v++ {
		name := b.RawVertexName(v)
		if a.RawVertexName(v) != name {
			return fmt.Errorf("vertex %d name %q != %q", v, a.RawVertexName(v), name)
		}
		if id, ok := a.Lookup(name); name != "" && (!ok || id != v) {
			return fmt.Errorf("Lookup(%q) = %d, %v, want %d", name, id, ok, v)
		}
		if !slices.Equal(a.Out(v), b.Out(v)) {
			return fmt.Errorf("Out(%d) = %v != %v", v, a.Out(v), b.Out(v))
		}
		if !slices.Equal(a.In(v), b.In(v)) {
			return fmt.Errorf("In(%d) = %v != %v", v, a.In(v), b.In(v))
		}
		for _, l := range b.Alphabet().Symbols() {
			if !slices.Equal(af.Succ(v, l), bf.Succ(v, l)) {
				return fmt.Errorf("Succ(%d, %d) = %v != %v", v, l, af.Succ(v, l), bf.Succ(v, l))
			}
		}
	}
	return a.CheckConsistency()
}

// replay is the per-record decoder DecodeSnapshot replaced, kept as the
// oracle: one AddVertex per name and one AddEdge per record, in snapshot
// order (so In lists come back source-major, whatever order db grew in).
func replay(db *graphdb.DB) *graphdb.DB {
	out := graphdb.New(db.Alphabet())
	for v := 0; v < db.NumVertices(); v++ {
		out.MustAddVertex(db.RawVertexName(v))
	}
	for u := 0; u < db.NumVertices(); u++ {
		for _, e := range db.Out(u) {
			out.MustAddEdge(u, e.Label, e.To)
		}
	}
	return out
}

// rawSnapshot encodes a payload EncodeSnapshot would never write — records
// out of range or repeated — under a correct header, empty footer sections
// and checksum.
func rawSnapshot(syms, names []string, records ...[3]uint64) []byte {
	buf := binary.LittleEndian.AppendUint16([]byte(snapMagic), snapVersion)
	for _, strs := range [][]string{syms, names} {
		buf = binary.AppendUvarint(buf, uint64(len(strs)))
		for _, s := range strs {
			buf = append(binary.AppendUvarint(buf, uint64(len(s))), s...)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(records)))
	for _, rec := range records {
		for _, x := range rec {
			buf = binary.AppendUvarint(buf, x)
		}
	}
	buf = append(buf, 0, 0)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// TestSnapshotRecordChecks: DecodeSnapshot's range check is the only one on
// the bulk path. A record naming vertex nV or label nSym is an error, and a
// repeated record decodes to the graph without the repeat — never a panic.
func TestSnapshotRecordChecks(t *testing.T) {
	syms, names := []string{"a", "b"}, []string{"x", "", "z"}
	good := [][3]uint64{{0, 1, 2}, {2, 0, 0}, {2, 1, 1}}
	want, err := DecodeSnapshot(rawSnapshot(syms, names, good...))
	if err != nil || want.NumVertices() != 3 || want.NumEdges() != 3 {
		t.Fatalf("well-formed raw snapshot: %v", err)
	}
	for what, rec := range map[string][3]uint64{
		"u = nV":    {3, 0, 0},
		"v = nV":    {0, 0, 3},
		"l = nSym":  {0, 2, 1},
		"u past 32": {1 << 32, 0, 0},
		"l past 32": {0, 1<<32 + 1, 0},
	} {
		_, err := DecodeSnapshot(rawSnapshot(syms, names, append(good[:2:2], rec, good[2])...))
		if err == nil || !strings.Contains(err.Error(), "snapshot edge 2") || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("record with %s: error %v, want edge 2 out of range", what, err)
		}
	}
	got, err := DecodeSnapshot(rawSnapshot(syms, names, good[0], good[1], good[0], good[2], good[1]))
	if err != nil {
		t.Fatalf("repeated records: %v", err)
	}
	if err := sameDB(got, want); err != nil {
		t.Errorf("repeated records: %v", err)
	}
	if _, err := DecodeSnapshot(rawSnapshot(syms, []string{"x", "y", "x"})); err == nil {
		t.Error("a repeated vertex name decoded")
	}
	if _, err := DecodeSnapshot(rawSnapshot(syms, nil, [3]uint64{0, 0, 0})); err == nil {
		t.Error("an edge over no vertices decoded")
	}
}

// TestSnapshotDecodeMatchesReplay: the bulk decode builds what the
// per-record decode built, for databases that were parsed, generated edge by
// edge in arbitrary order, and mutated after a parse.
func TestSnapshotDecodeMatchesReplay(t *testing.T) {
	parsed, err := graphdb.ParseString("alphabet a b c\nz c x\nx a y\ny b z\nvertex w\nz a x\nx a y\ny a y\n")
	if err != nil {
		t.Fatal(err)
	}
	mutated, _ := graphdb.ParseString(parsed.FormatString())
	mutated.MustAddEdge(mutated.MustAddVertex(""), 2, 0)
	mutated.MustAddEdge(0, 1, 0)
	mutated.MustAddEdge(1, 1, 0)
	dbs := map[string]*graphdb.DB{"parsed": parsed, "mutated": mutated, "ring": buildDB(t, 17)}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 50; i++ {
		dbs[fmt.Sprintf("random %d", i)] = workload.RandomDB(rng, alphabet.Lower(1+rng.Intn(4)), 1+rng.Intn(60), rng.Intn(200))
	}
	for name, db := range dbs {
		enc := EncodeSnapshot(db)
		back, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if err := sameDB(back, replay(db)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !bytes.Equal(EncodeSnapshot(back), enc) {
			t.Errorf("%s: re-encoding the decoded database changed the bytes", name)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := buildDB(t, 17)
	in := Snapshot{DB: db, Stats: []byte(`{"generation":4}`), Digest: []byte("digest bytes")}
	enc := in.Encode()
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := sameDB(db, back.DB); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !bytes.Equal(back.Stats, in.Stats) || !bytes.Equal(back.Digest, in.Digest) {
		t.Errorf("sections came back as %q, %q", back.Stats, back.Digest)
	}
	// Deterministic encoding: same snapshot, same bytes.
	if !bytes.Equal(enc, back.Encode()) {
		t.Error("re-encoding the decoded snapshot changed the bytes")
	}
	// The sections are copies: the file's bytes may be reused.
	clear(enc)
	if string(back.Stats) != `{"generation":4}` {
		t.Errorf("decoded stats alias the file: %q", back.Stats)
	}
}

func TestSnapshotEmptyDB(t *testing.T) {
	db := graphdb.New(alphabet.MustNew("x"))
	back, err := DecodeSnapshot(EncodeSnapshot(db))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if back.NumVertices() != 0 || back.NumEdges() != 0 {
		t.Errorf("empty database round-tripped to %d/%d", back.NumVertices(), back.NumEdges())
	}
}

// TestSnapshotCorruptionDetected flips every byte position in turn: each
// mutation must produce a decode error (checksum or structural), never a
// panic and never a silently different database.
func TestSnapshotCorruptionDetected(t *testing.T) {
	enc := Snapshot{DB: buildDB(t, 5), Stats: []byte("{}"), Digest: []byte("dg")}.Encode()
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x41
		if db, err := DecodeSnapshot(mut); err == nil {
			// A flip inside the checksum field itself cannot collide with
			// CRC-32C of the same body; anything else decoding cleanly is a
			// corruption miss.
			t.Fatalf("byte %d corrupted silently (decoded %d vertices)", i, db.NumVertices())
		}
	}
	for _, cut := range []int{0, 1, 5, 9, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeSnapshot(enc[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded cleanly", cut)
		}
	}
}

func TestStoreReplayRegisterReplaceDrop(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	dbA, dbB, dbC := buildDB(t, 3), buildDB(t, 5), buildDB(t, 7)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(appendRegister(st, "alpha", 1, now, dbA))
	must(appendRegister(st, "beta", 2, now, dbB))
	must(appendRegister(st, "alpha", 3, now, dbC)) // replace
	must(appendRegister(st, "gamma", 4, now, dbA))
	must(st.AppendDropContext(context.Background(), "gamma", 4))
	must(st.Close())

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(st2.Warnings()) != 0 {
		t.Errorf("clean replay produced warnings: %v", st2.Warnings())
	}
	if st2.MaxGen() != 4 {
		t.Errorf("MaxGen=%d, want 4", st2.MaxGen())
	}
	entries := st2.TakeEntries()
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2 (alpha replaced, gamma dropped)", len(entries))
	}
	byName := map[string]Entry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	if e := byName["alpha"]; e.Gen != 3 {
		t.Errorf("alpha gen=%d, want 3 (the replacement)", e.Gen)
	} else if err := sameDB(e.DB, dbC); err != nil {
		t.Errorf("alpha content: %v", err)
	}
	if e := byName["beta"]; e.Gen != 2 {
		t.Errorf("beta gen=%d, want 2", e.Gen)
	}

	// Dropped and replaced snapshots must be garbage-collected.
	snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if len(snaps) != 2 {
		t.Errorf("%d snapshot files after GC, want 2: %v", len(snaps), snaps)
	}
}

// TestStoreTornTailTruncated simulates a crash mid-append: garbage (and a
// valid-looking but checksum-bad prefix) after the last good record must
// be truncated away, losing only the torn record.
func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRegister(st, "keep", 1, time.Now(), buildDB(t, 4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, journalName)
	good, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// A torn record: a full record for "lost" with its last 3 bytes missing.
	torn := encodeRecord(journalRecord{op: opRegister, gen: 2, name: "lost", snapFile: "db-x.snap"})
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery from torn tail failed: %v", err)
	}
	defer st2.Close()
	if ents := st2.TakeEntries(); len(ents) != 1 || ents[0].Name != "keep" {
		t.Fatalf("entries after torn-tail recovery: %+v", ents)
	}
	found := false
	for _, w := range st2.Warnings() {
		if strings.Contains(w, "torn tail") {
			found = true
		}
	}
	if !found {
		t.Errorf("no torn-tail warning in %v", st2.Warnings())
	}
	if after, _ := os.ReadFile(jpath); len(after) != len(good) {
		t.Errorf("journal is %d bytes after recovery, want truncated back to %d", len(after), len(good))
	}
	// The repaired journal must accept new appends and replay cleanly.
	if err := appendRegister(st2, "fresh", 5, time.Now(), buildDB(t, 2)); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if n := len(st3.TakeEntries()); n != 2 || st3.MaxGen() != 5 {
		t.Errorf("after repair+append: %d entries, MaxGen=%d; want 2 entries, MaxGen 5", n, st3.MaxGen())
	}
}

// TestStoreCorruptSnapshotSalvage: a corrupt snapshot loses that database
// only; the rest of the registry survives with a warning.
func TestStoreCorruptSnapshotSalvage(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRegister(st, "ok", 1, time.Now(), buildDB(t, 3)); err != nil {
		t.Fatal(err)
	}
	if err := appendRegister(st, "bad", 2, time.Now(), buildDB(t, 3)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := os.WriteFile(filepath.Join(dir, snapFileName(2)), []byte("ECSNgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if ents := st2.TakeEntries(); len(ents) != 1 || ents[0].Name != "ok" {
		t.Fatalf("entries=%+v, want just 'ok'", ents)
	}
	if len(st2.Warnings()) == 0 {
		t.Error("corrupt snapshot produced no warning")
	}
	if st2.MaxGen() != 2 {
		t.Errorf("MaxGen=%d, want 2 (corrupt registration still reserves its generation)", st2.MaxGen())
	}
}

// BenchmarkRecovery measures Open (journal replay + snapshot decode) as a
// function of database size — the EXPERIMENTS.md A7 recovery-time numbers.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("vertices=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			st, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			for i, name := range []string{"g0", "g1", "g2"} {
				if err := appendRegister(st, name, uint64(i+1), time.Now(), buildDB(b, n)); err != nil {
					b.Fatal(err)
				}
			}
			st.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				if n := len(st.TakeEntries()); n != 3 {
					b.Fatalf("replayed %d entries", n)
				}
				st.Close()
			}
		})
	}
}

var sinkDB *graphdb.DB

// BenchmarkDecodeSnapshot measures the restore, catch-up and replicated
// install path: one snapshot of a random graph, decoded.
func BenchmarkDecodeSnapshot(b *testing.B) {
	for _, size := range [][2]int{{2000, 6000}, {20000, 60000}} {
		snap := EncodeSnapshot(workload.RandomDB(rand.New(rand.NewSource(28)), alphabet.Lower(3), size[0], size[1]))
		b.Run(fmt.Sprintf("V%d_E%d", size[0], size[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db, err := DecodeSnapshot(snap)
				if err != nil {
					b.Fatal(err)
				}
				sinkDB = db
			}
		})
	}
}

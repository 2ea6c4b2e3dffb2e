package persist

import (
	"bytes"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
)

// FuzzSnapshotRoundTrip mirrors graphdb's FuzzParse for the binary codec:
// arbitrary bytes must never panic Decode, and anything that does decode —
// a version-1 file or a version-2 one — must re-encode to a snapshot that
// decodes back to the identical database and footer sections
// (decode∘encode is the identity on the codec's image).
func FuzzSnapshotRoundTrip(f *testing.F) {
	seed := func(build func(db *graphdb.DB)) {
		db := graphdb.New(alphabet.MustNew("a", "b"))
		build(db)
		f.Add(EncodeSnapshot(db))
	}
	seed(func(db *graphdb.DB) {})
	seed(func(db *graphdb.DB) {
		u, v := db.MustAddVertex("u"), db.MustAddVertex("v")
		db.MustAddEdge(u, 0, v)
		db.MustAddEdge(v, 1, u)
	})
	seed(func(db *graphdb.DB) {
		anon := db.MustAddVertex("")
		db.MustAddEdge(anon, 0, anon)
	})
	seed(func(db *graphdb.DB) {
		for i := 0; i < 20; i++ {
			db.MustAddVertex("")
		}
		for i := 0; i < 20; i++ {
			db.MustAddEdge(i, alphabet.Symbol(i%2), (i*7+3)%20)
		}
	})
	ring := graphdb.New(alphabet.MustNew("a", "b"))
	u, v := ring.MustAddVertex("u"), ring.MustAddVertex("")
	ring.MustAddEdge(u, 1, v)
	f.Add(Snapshot{DB: ring, Stats: []byte(`{"generation":1}`)}.Encode())
	f.Add(Snapshot{DB: ring, Stats: []byte("{}"), Digest: []byte("digest")}.Encode())
	// Mutated seeds so the fuzzer starts near the interesting rejection
	// paths (bad magic, bad checksum) rather than only deep inside them.
	base := EncodeSnapshot(graphdb.New(alphabet.MustNew("a")))
	for i := 0; i < len(base); i += 3 {
		mut := append([]byte(nil), base...)
		mut[i] ^= 0xff
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		back, err := Decode(snap.Encode())
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot does not decode: %v", err)
		}
		if err := sameDB(snap.DB, back.DB); err != nil {
			t.Fatalf("decode∘encode not the identity: %v", err)
		}
		if !bytes.Equal(snap.Stats, back.Stats) || !bytes.Equal(snap.Digest, back.Digest) {
			t.Fatalf("sections %q, %q came back as %q, %q", snap.Stats, snap.Digest, back.Stats, back.Digest)
		}
	})
}

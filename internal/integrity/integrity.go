// Package integrity computes deterministic, order-independent content
// digests over graph databases, the foundation of ecrpqd's end-to-end
// integrity subsystem (background scrub, replica verification, and
// anti-entropy repair).
//
// A digest is the xor-fold of one FNV-1a hash per record — alphabet
// symbol, vertex, and edge — passed through a strong finalizer so that
// record hashes do not cancel structurally. Xor-folding makes the digest
// independent of iteration order: the owner hashing its in-memory
// adjacency lists and a replica hashing a freshly decoded snapshot
// produce the same sum whenever they hold the same graph, even if edges
// were inserted in different orders on the way in. A trailing counts
// record (vertices, edges, symbols) guards the fold against
// multiplicity blindness, and the registry generation is mixed into the
// final sum so a digest can never validate content against the wrong
// registration.
//
// The encoded form ("ECDG" magic, version, generation, sum, CRC-32C) is
// persisted in the footer of the generation's snapshot, shipped with that
// snapshot inside ReplicateRecord, and served at GET /v1/integrity/{db}; Decode rejects
// truncated, corrupt, or future-versioned bytes with typed errors.
package integrity

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"ecrpq/internal/graphdb"
)

// Digest is the content digest of one database registration: the
// generation it was computed for and the order-independent content sum.
// Two Digests are comparable with ==.
type Digest struct {
	Gen uint64
	Sum uint64
}

// String renders the content sum as fixed-width hex (the form served by
// GET /v1/integrity/{db} and compared by the anti-entropy sweep).
func (d Digest) String() string { return fmt.Sprintf("%016x", d.Sum) }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// record tags keep the per-record hash domains disjoint: a vertex named
// "x" and a symbol named "x" must not hash identically.
const (
	tagSymbol = 'A'
	tagVertex = 'V'
	tagEdge   = 'E'
	tagCounts = 'C'
)

// fnvByte / fnvUint / fnvString extend an FNV-1a state.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUint(h uint64, v uint64) uint64 {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	for _, b := range buf[:n] {
		h = fnvByte(h, b)
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// finalize is the splitmix64 finalizer. Raw FNV hashes of similar
// records share bit patterns that an xor-fold would cancel; the
// finalizer diffuses every input bit across the word so folded records
// behave like independent random values.
func finalize(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Compute builds the content digest of db bound to gen. It is a pure
// O(V+E) scan: per-symbol, per-vertex, and per-edge record hashes are
// finalized and xor-folded (insertion order cannot matter), a counts
// record seals the fold, and the generation is mixed into the final sum.
func Compute(db *graphdb.DB, gen uint64) Digest {
	var sum uint64
	names := db.Alphabet().Names()
	for i, name := range names {
		h := fnvByte(fnvOffset64, tagSymbol)
		h = fnvUint(h, uint64(i))
		h = fnvString(h, name)
		sum ^= finalize(h)
	}
	nV := db.NumVertices()
	for v := 0; v < nV; v++ {
		h := fnvByte(fnvOffset64, tagVertex)
		h = fnvUint(h, uint64(v))
		h = fnvString(h, db.RawVertexName(v))
		sum ^= finalize(h)
		for _, e := range db.Out(v) {
			eh := fnvByte(fnvOffset64, tagEdge)
			eh = fnvUint(eh, uint64(v))
			eh = fnvUint(eh, uint64(e.Label))
			eh = fnvUint(eh, uint64(e.To))
			sum ^= finalize(eh)
		}
	}
	ch := fnvByte(fnvOffset64, tagCounts)
	ch = fnvUint(ch, uint64(nV))
	ch = fnvUint(ch, uint64(db.NumEdges()))
	ch = fnvUint(ch, uint64(len(names)))
	sum ^= finalize(ch)
	return Digest{Gen: gen, Sum: finalize(sum ^ finalize(gen+fnvPrime64))}
}

// Encoded form: magic "ECDG" (4) | version (1) | gen LE (8) | sum LE (8)
// | CRC-32C of the preceding 21 bytes, LE (4). Fixed 25 bytes.
const (
	codecVersion = 1
	encodedLen   = 25
)

var magic = [4]byte{'E', 'C', 'D', 'G'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Typed decode failures, distinguishable with errors.Is.
var (
	ErrTruncated  = errors.New("integrity: digest record truncated")
	ErrBadMagic   = errors.New("integrity: not a digest record")
	ErrBadVersion = errors.New("integrity: unsupported digest version")
	ErrChecksum   = errors.New("integrity: digest record checksum mismatch")
)

// Encode renders the digest in its persisted and wire form.
func (d Digest) Encode() []byte {
	buf := make([]byte, encodedLen)
	copy(buf, magic[:])
	buf[4] = codecVersion
	binary.LittleEndian.PutUint64(buf[5:], d.Gen)
	binary.LittleEndian.PutUint64(buf[13:], d.Sum)
	binary.LittleEndian.PutUint32(buf[21:], crc32.Checksum(buf[:21], crcTable))
	return buf
}

// Decode parses an encoded digest, rejecting truncation, foreign bytes,
// future versions, and checksum damage. Trailing bytes beyond the fixed
// record are also rejected: an encoded digest is exactly one record.
func Decode(data []byte) (Digest, error) {
	if len(data) < encodedLen {
		return Digest{}, fmt.Errorf("%w: %d byte(s), want %d", ErrTruncated, len(data), encodedLen)
	}
	if len(data) > encodedLen {
		return Digest{}, fmt.Errorf("%w: %d trailing byte(s)", ErrChecksum, len(data)-encodedLen)
	}
	if [4]byte(data[:4]) != magic {
		return Digest{}, ErrBadMagic
	}
	if data[4] != codecVersion {
		return Digest{}, fmt.Errorf("%w: %d", ErrBadVersion, data[4])
	}
	want := binary.LittleEndian.Uint32(data[21:])
	if got := crc32.Checksum(data[:21], crcTable); got != want {
		return Digest{}, fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, got, want)
	}
	return Digest{
		Gen: binary.LittleEndian.Uint64(data[5:]),
		Sum: binary.LittleEndian.Uint64(data[13:]),
	}, nil
}

// Verify recomputes db's digest at d.Gen and reports whether it matches
// d, returning the recomputed digest either way.
func Verify(db *graphdb.DB, d Digest) (Digest, bool) {
	got := Compute(db, d.Gen)
	return got, got == d
}

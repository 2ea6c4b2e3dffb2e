// Package persist is the crash-safety layer of ecrpqd: a versioned,
// checksummed binary snapshot codec for graph databases plus an
// append-only registry journal, combined by Store into an atomically
// updated data directory that a kill -9 at any instant cannot corrupt.
//
// Layout of a data directory:
//
//	registry.journal   append-only log of register/drop events
//	db-<gen>.snap      one file per registration, named by generation: the
//	                   snapshot, with the statistics catalog and content
//	                   digest in its footer
//
// Durability protocol for a registration: the snapshot is written to a
// temporary file, fsynced, renamed into place, and the directory fsynced
// before the journal record referencing it is appended and fsynced. A
// crash therefore leaves either (a) an orphan snapshot with no record —
// garbage-collected on the next Open — or (b) a torn final journal record,
// which replay detects by checksum and truncates away. Everything earlier
// in the journal is intact by construction.
package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
)

// Snapshot format:
//
//	magic    "ECSN" (4 bytes)
//	version  uint16 LE (currently 2; version 1 is still read)
//	payload  uvarint-encoded graph (below)
//	stats    uvarint len + the encoded statistics catalog (version 2 only)
//	digest   uvarint len + the encoded content digest (version 2 only)
//	checksum uint32 LE CRC-32C of everything before it
//
// payload:
//
//	uvarint alphabetSize, then per symbol: uvarint len + name bytes
//	uvarint numVertices,  then per vertex: uvarint len + name bytes ("" = anonymous)
//	uvarint numEdges,     then per edge:   uvarint src, uvarint label, uvarint dst
//
// A version-1 file has no footer sections and decodes with nil ones.
const (
	snapMagic   = "ECSN"
	snapVersion = 2
)

// crcTable is CRC-32C (Castagnoli), the polynomial with hardware support
// on the platforms the daemon targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is what one generation's file holds: the database and, in the
// footer, its encoded statistics catalog (internal/stats.Catalog.Encode) and
// content digest (internal/integrity.Digest.Encode). A section is nil when
// none was written, as in every version-1 file. Both are advisory bytes the
// server validates on decode, recomputing what does not decode at the
// generation.
type Snapshot struct {
	DB            *graphdb.DB
	Stats, Digest []byte
}

// Encode serializes s into the versioned, checksummed snapshot format. The
// encoding is deterministic for a given snapshot.
func (s Snapshot) Encode() []byte {
	db := s.DB
	buf := make([]byte, 0, 64+db.NumVertices()*8+db.NumEdges()*6+len(s.Stats)+len(s.Digest))
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, snapVersion)

	names := db.Alphabet().Names()
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
	}
	nV := db.NumVertices()
	buf = binary.AppendUvarint(buf, uint64(nV))
	for v := 0; v < nV; v++ {
		// RawVertexName distinguishes a genuinely anonymous vertex from one
		// named "v<id>"; VertexName would conflate them.
		n := db.RawVertexName(v)
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
	}
	buf = binary.AppendUvarint(buf, uint64(db.NumEdges()))
	for u := 0; u < nV; u++ {
		for _, e := range db.Out(u) {
			buf = binary.AppendUvarint(buf, uint64(u))
			buf = binary.AppendUvarint(buf, uint64(e.Label))
			buf = binary.AppendUvarint(buf, uint64(e.To))
		}
	}
	for _, sec := range [][]byte{s.Stats, s.Digest} {
		buf = binary.AppendUvarint(buf, uint64(len(sec)))
		buf = append(buf, sec...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// EncodeSnapshot encodes db in a snapshot with empty footer sections.
func EncodeSnapshot(db *graphdb.DB) []byte { return Snapshot{DB: db}.Encode() }

// snapReader walks the payload with bounds checking; every read error is a
// decode error, never a panic.
type snapReader struct {
	data []byte
	off  int
}

func (r *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("persist: truncated or malformed varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// bytes reads a length-prefixed field, capping the length by the bytes that
// actually remain so corrupt lengths cannot drive huge allocations. The
// field aliases the input.
func (r *snapReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.off) {
		return nil, fmt.Errorf("persist: field length %d exceeds remaining %d bytes", n, len(r.data)-r.off)
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *snapReader) str() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

// DecodeSnapshot is Decode's database.
func DecodeSnapshot(data []byte) (*graphdb.DB, error) {
	s, err := Decode(data)
	return s.DB, err
}

// Decode parses a snapshot of either version, verifying magic, version, and
// checksum before touching the payload. Corrupt or truncated input of any
// shape yields an error, never a panic. The sections are copies, so they do
// not keep data alive.
func Decode(data []byte) (Snapshot, error) {
	const headerLen = len(snapMagic) + 2
	if len(data) < headerLen+4 {
		return Snapshot{}, fmt.Errorf("persist: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return Snapshot{}, fmt.Errorf("persist: bad snapshot magic %q", data[:len(snapMagic)])
	}
	version := binary.LittleEndian.Uint16(data[len(snapMagic):])
	if version != 1 && version != snapVersion {
		return Snapshot{}, fmt.Errorf("persist: unsupported snapshot version %d (want 1 or %d)", version, snapVersion)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, crcTable); got != sum {
		return Snapshot{}, fmt.Errorf("persist: snapshot checksum mismatch (stored %08x, computed %08x)", sum, got)
	}

	r := &snapReader{data: body, off: headerLen}
	nSym, err := r.uvarint()
	if err != nil {
		return Snapshot{}, err
	}
	if nSym > uint64(len(body)) {
		return Snapshot{}, fmt.Errorf("persist: alphabet size %d exceeds snapshot size", nSym)
	}
	symNames := make([]string, nSym)
	for i := range symNames {
		if symNames[i], err = r.str(); err != nil {
			return Snapshot{}, err
		}
	}
	alpha, err := alphabet.New(symNames...)
	if err != nil {
		return Snapshot{}, fmt.Errorf("persist: snapshot alphabet: %w", err)
	}

	nV, err := r.uvarint()
	if err != nil {
		return Snapshot{}, err
	}
	if nV > uint64(len(body)) {
		return Snapshot{}, fmt.Errorf("persist: vertex count %d exceeds snapshot size", nV)
	}
	names := make([]string, nV)
	for i := range names {
		if names[i], err = r.str(); err != nil {
			return Snapshot{}, err
		}
	}

	nE, err := r.uvarint()
	if err != nil {
		return Snapshot{}, err
	}
	if nE > uint64(len(body)-r.off)/3 { // a record is at least three bytes
		return Snapshot{}, fmt.Errorf("persist: edge count %d exceeds snapshot size", nE)
	}
	// The records are range-checked here, before they narrow to the int32
	// triples graphdb.Load takes (it checks them again).
	triples := make([]int32, 0, 3*nE)
	for i := uint64(0); i < nE; i++ {
		var rec [3]uint64 // source, label, target
		for j := range rec {
			if rec[j], err = r.uvarint(); err != nil {
				return Snapshot{}, err
			}
		}
		if rec[0] >= nV || rec[2] >= nV || rec[1] >= nSym {
			return Snapshot{}, fmt.Errorf("persist: snapshot edge %d (%d,%d,%d) out of range", i, rec[0], rec[1], rec[2])
		}
		triples = append(triples, int32(rec[0]), int32(rec[1]), int32(rec[2]))
	}
	var snap Snapshot
	if version == snapVersion {
		for _, sec := range []*[]byte{&snap.Stats, &snap.Digest} {
			b, err := r.bytes()
			if err != nil {
				return Snapshot{}, err
			}
			if len(b) > 0 {
				*sec = bytes.Clone(b)
			}
		}
	}
	if r.off != len(body) {
		return Snapshot{}, fmt.Errorf("persist: %d trailing bytes after snapshot payload", len(body)-r.off)
	}
	if snap.DB, err = graphdb.Load(alpha, names, triples); err != nil {
		return Snapshot{}, fmt.Errorf("persist: snapshot: %w", err)
	}
	return snap, nil
}

// Package persist is the crash-safety layer of ecrpqd: a versioned,
// checksummed binary snapshot codec for graph databases plus an
// append-only registry journal, combined by Store into an atomically
// updated data directory that a kill -9 at any instant cannot corrupt.
//
// Layout of a data directory:
//
//	registry.journal   append-only log of register/drop events
//	db-<gen>.snap      one snapshot per registration, named by generation
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
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
)

// Snapshot format:
//
//	magic    "ECSN" (4 bytes)
//	version  uint16 LE (currently 1)
//	payload  uvarint-encoded body (below)
//	checksum uint32 LE CRC-32C of everything before it
//
// payload:
//
//	uvarint alphabetSize, then per symbol: uvarint len + name bytes
//	uvarint numVertices,  then per vertex: uvarint len + name bytes ("" = anonymous)
//	uvarint numEdges,     then per edge:   uvarint src, uvarint label, uvarint dst
const (
	snapMagic   = "ECSN"
	snapVersion = 1
)

// crcTable is CRC-32C (Castagnoli), the polynomial with hardware support
// on the platforms the daemon targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeSnapshot serializes db into the versioned, checksummed snapshot
// format. The encoding is deterministic for a given database.
func EncodeSnapshot(db *graphdb.DB) []byte {
	buf := make([]byte, 0, 64+db.NumVertices()*8+db.NumEdges()*6)
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
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

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

// str reads a length-prefixed string, capping the length by the bytes that
// actually remain so corrupt lengths cannot drive huge allocations.
func (r *snapReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.data)-r.off) {
		return "", fmt.Errorf("persist: string length %d exceeds remaining %d bytes", n, len(r.data)-r.off)
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// DecodeSnapshot parses a snapshot produced by EncodeSnapshot, verifying
// magic, version, and checksum before touching the payload. Corrupt or
// truncated input of any shape yields an error, never a panic.
func DecodeSnapshot(data []byte) (*graphdb.DB, error) {
	const headerLen = len(snapMagic) + 2
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("persist: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("persist: bad snapshot magic %q", data[:len(snapMagic)])
	}
	if v := binary.LittleEndian.Uint16(data[len(snapMagic):]); v != snapVersion {
		return nil, fmt.Errorf("persist: unsupported snapshot version %d (want %d)", v, snapVersion)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, crcTable); got != sum {
		return nil, fmt.Errorf("persist: snapshot checksum mismatch (stored %08x, computed %08x)", sum, got)
	}

	r := &snapReader{data: body, off: headerLen}
	nSym, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nSym > uint64(len(body)) {
		return nil, fmt.Errorf("persist: alphabet size %d exceeds snapshot size", nSym)
	}
	symNames := make([]string, nSym)
	for i := range symNames {
		if symNames[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	alpha, err := alphabet.New(symNames...)
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot alphabet: %w", err)
	}

	nV, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nV > uint64(len(body)) {
		return nil, fmt.Errorf("persist: vertex count %d exceeds snapshot size", nV)
	}
	names := make([]string, nV)
	for i := range names {
		if names[i], err = r.str(); err != nil {
			return nil, err
		}
	}

	nE, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nE > uint64(len(body)-r.off)/3 { // a record is at least three bytes
		return nil, fmt.Errorf("persist: edge count %d exceeds snapshot size", nE)
	}
	// The records are range-checked here, before they narrow to the int32
	// triples graphdb.Load takes (it checks them again).
	triples := make([]int32, 0, 3*nE)
	for i := uint64(0); i < nE; i++ {
		var rec [3]uint64 // source, label, target
		for j := range rec {
			if rec[j], err = r.uvarint(); err != nil {
				return nil, err
			}
		}
		if rec[0] >= nV || rec[2] >= nV || rec[1] >= nSym {
			return nil, fmt.Errorf("persist: snapshot edge %d (%d,%d,%d) out of range", i, rec[0], rec[1], rec[2])
		}
		triples = append(triples, int32(rec[0]), int32(rec[1]), int32(rec[2]))
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("persist: %d trailing bytes after snapshot payload", len(body)-r.off)
	}
	db, err := graphdb.Load(alpha, names, triples)
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot: %w", err)
	}
	return db, nil
}

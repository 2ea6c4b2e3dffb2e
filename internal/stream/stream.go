// Package stream is the composable pull-iterator layer behind streaming
// result enumeration: answer tuples flow through Tuples iterators from
// the lazy Lemma 4.3 sweep up to the paginated /v1/enumerate endpoint,
// so producing the first page of answers costs a fraction of a full
// materialization.
//
// The contract every iterator implements:
//
//   - Next returns the next tuple and true, or (nil, false) when the
//     stream is exhausted or failed. The returned slice is only valid
//     until the next call to Next — callers that retain a tuple copy it.
//   - Err reports the first error encountered; it must be checked after
//     Next returns false (exhaustion and failure look identical at Next).
//   - Close releases everything the iterator holds (govern charges,
//     trace spans, product-search scratch) and is idempotent. Every
//     obtained iterator must be closed on all paths — the streamclose
//     lint analyzer enforces this in the consuming packages.
//
// Combinators compose without goroutines or channels: a pipeline is a
// plain call stack, so cancellation, error propagation, and resource
// release are synchronous and deterministic. Determinism matters beyond
// tidiness — the /v1/enumerate cursor encodes a plain offset, which only
// resumes correctly because every stage enumerates in a reproducible
// order.
package stream

import (
	"context"

	"ecrpq/internal/govern"
)

// Tuples is a pull iterator over integer tuples. See the package comment
// for the Next/Err/Close contract.
type Tuples interface {
	// Next returns the next tuple, or false when the stream is done (or
	// failed — check Err). The slice may be reused by the next call.
	Next() ([]int, bool)
	// Err returns the first error the stream hit, nil on clean exhaustion.
	Err() error
	// Close releases the stream's resources on all paths. Idempotent.
	Close()
}

// Empty returns an iterator with no tuples.
func Empty() Tuples { return &sliceStream{} }

// Once returns an iterator yielding exactly the given tuple (which may
// be empty — the Boolean "yes" answer).
func Once(row []int) Tuples { return &sliceStream{rows: [][]int{row}} }

// FromRows returns an iterator over the given rows in order. The rows
// are not copied.
func FromRows(rows [][]int) Tuples { return &sliceStream{rows: rows} }

type sliceStream struct {
	rows [][]int
	i    int
}

func (s *sliceStream) Next() ([]int, bool) {
	if s.i >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.i]
	s.i++
	return r, true
}

func (s *sliceStream) Err() error { return nil }
func (s *sliceStream) Close()     { s.i = len(s.rows) }

// Limit passes through at most n tuples, then reports exhaustion and
// closes the source early — the "stop at first witness" primitive is
// Limit(s, 1).
func Limit(src Tuples, n int) Tuples { return &limitStream{src: src, left: n} }

type limitStream struct {
	src  Tuples
	left int
	done bool
}

func (s *limitStream) Next() ([]int, bool) {
	if s.done || s.left <= 0 {
		return nil, false
	}
	row, ok := s.src.Next()
	if !ok {
		s.done = true
		return nil, false
	}
	s.left--
	return row, true
}

func (s *limitStream) Err() error { return s.src.Err() }
func (s *limitStream) Close()     { s.done = true; s.src.Close() }

// Offset discards the first n tuples. Discarded tuples are still
// produced by the source (an offset resume re-does the skipped work);
// the /v1/enumerate cursor accepts that cost in exchange for a stateless
// server.
func Offset(src Tuples, n int) Tuples { return &offsetStream{src: src, skip: n} }

type offsetStream struct {
	src  Tuples
	skip int
}

func (s *offsetStream) Next() ([]int, bool) {
	//ecrpq:bounded each iteration consumes one source tuple and skip strictly decreases
	for s.skip > 0 {
		if _, ok := s.src.Next(); !ok {
			return nil, false
		}
		s.skip--
	}
	return s.src.Next()
}

func (s *offsetStream) Err() error { return s.src.Err() }
func (s *offsetStream) Close()     { s.src.Close() }

// Filter passes through the tuples keep accepts.
func Filter(src Tuples, keep func([]int) bool) Tuples {
	return &filterStream{src: src, keep: keep}
}

type filterStream struct {
	src  Tuples
	keep func([]int) bool
}

func (s *filterStream) Next() ([]int, bool) {
	//ecrpq:bounded each iteration consumes one source tuple; the source is finite
	for {
		row, ok := s.src.Next()
		if !ok {
			return nil, false
		}
		if s.keep(row) {
			return row, true
		}
	}
}

func (s *filterStream) Err() error { return s.src.Err() }
func (s *filterStream) Close()     { s.src.Close() }

// ChargeFunc accounts stream-held bytes: positive deltas charge,
// negative release. It matches cq.ChargeFunc / govern.Meter.Charge so
// the same govern plumbing meters join state and dedup sets.
type ChargeFunc func(deltaBytes int64) error

// dedupEntryBytes approximates one seen-set entry (map overhead plus the
// string key).
const dedupEntryBytes = 64

// Dedup drops tuples already seen, charging the seen set through charge
// (nil disables accounting). First occurrence wins, so a deterministic
// source stays deterministic through Dedup.
func Dedup(src Tuples, charge ChargeFunc) Tuples {
	return &dedupStream{src: src, charge: charge, seen: make(map[string]struct{})}
}

type dedupStream struct {
	src    Tuples
	charge ChargeFunc
	seen   map[string]struct{}
	err    error
}

func (s *dedupStream) Next() ([]int, bool) {
	if s.err != nil {
		return nil, false
	}
	//ecrpq:bounded each iteration consumes one source tuple; the source is finite
	for {
		row, ok := s.src.Next()
		if !ok {
			return nil, false
		}
		k := rowKey(row)
		if _, dup := s.seen[k]; dup {
			continue
		}
		if s.charge != nil {
			if err := s.charge(dedupEntryBytes + int64(len(k))); err != nil {
				s.err = err
				return nil, false
			}
		}
		s.seen[k] = struct{}{}
		return row, true
	}
}

func (s *dedupStream) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.src.Err()
}

func (s *dedupStream) Close() { s.src.Close() }

// Project narrows each tuple to the given column indices, reusing one
// output buffer across calls.
func Project(src Tuples, cols []int) Tuples {
	return &projectStream{src: src, cols: cols, buf: make([]int, len(cols))}
}

type projectStream struct {
	src  Tuples
	cols []int
	buf  []int
}

func (s *projectStream) Next() ([]int, bool) {
	row, ok := s.src.Next()
	if !ok {
		return nil, false
	}
	for i, c := range s.cols {
		s.buf[i] = row[c]
	}
	return s.buf, true
}

func (s *projectStream) Err() error { return s.src.Err() }
func (s *projectStream) Close()     { s.src.Close() }

// Map rewrites each tuple through fn; returning false drops the tuple.
// fn may reuse one output buffer across calls (the Next contract already
// forbids retaining returned slices).
func Map(src Tuples, fn func([]int) ([]int, bool)) Tuples {
	return &mapStream{src: src, fn: fn}
}

type mapStream struct {
	src Tuples
	fn  func([]int) ([]int, bool)
}

func (s *mapStream) Next() ([]int, bool) {
	//ecrpq:bounded each iteration consumes one source tuple; the source is finite
	for {
		row, ok := s.src.Next()
		if !ok {
			return nil, false
		}
		if out, keep := s.fn(row); keep {
			return out, true
		}
	}
}

func (s *mapStream) Err() error { return s.src.Err() }
func (s *mapStream) Close()     { s.src.Close() }

// WithContext aborts the stream with ctx.Err() as soon as ctx is
// cancelled: every Next polls. Downstream of chunky producers this
// bounds cancellation latency to one tuple.
func WithContext(ctx context.Context, src Tuples) Tuples {
	return &ctxStream{ctx: ctx, src: src}
}

type ctxStream struct {
	ctx context.Context
	src Tuples
	err error
}

func (s *ctxStream) Next() ([]int, bool) {
	if s.err != nil {
		return nil, false
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		return nil, false
	}
	return s.src.Next()
}

func (s *ctxStream) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.src.Err()
}

func (s *ctxStream) Close() { s.src.Close() }

// OnClose runs fn when the stream is closed (exactly once), after the
// source's own Close. It is how owners of shared resources — the sweep
// source's product-search scratch, a govern reservation — tie their
// release to the stream's lifetime.
func OnClose(src Tuples, fn func()) Tuples {
	return &closeStream{src: src, fn: fn}
}

type closeStream struct {
	src    Tuples
	fn     func()
	closed bool
}

func (s *closeStream) Next() ([]int, bool) { return s.src.Next() }
func (s *closeStream) Err() error          { return s.src.Err() }

func (s *closeStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.src.Close()
	if s.fn != nil {
		s.fn()
	}
}

// meteredChunkRows is how many tuples a Metered stream passes between
// ledger charges: the govern reservation absorbs one Grow per chunk
// instead of one per row.
const meteredChunkRows = 64

// Metered charges rowBytes per tuple against the meter in chunks of
// meteredChunkRows, and closes the meter (releasing every charged byte)
// when the stream closes. A denial from the ledger surfaces as the
// stream's error — exactly how a mid-Next govern denial reaches the
// server's 429 mapping. Nil meters pass through uncharged.
func Metered(src Tuples, m *govern.Meter, rowBytes int64) Tuples {
	return &meteredStream{src: src, m: m, rowBytes: rowBytes}
}

type meteredStream struct {
	src      Tuples
	m        *govern.Meter
	rowBytes int64
	pending  int // rows produced since the last chunk charge
	err      error
	closed   bool
}

func (s *meteredStream) Next() ([]int, bool) {
	if s.err != nil {
		return nil, false
	}
	if s.pending >= meteredChunkRows {
		if err := s.m.Grow(int64(s.pending) * s.rowBytes); err != nil {
			s.err = err
			return nil, false
		}
		s.pending = 0
	}
	row, ok := s.src.Next()
	if !ok {
		return nil, false
	}
	s.pending++
	return row, true
}

func (s *meteredStream) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.src.Err()
}

func (s *meteredStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.src.Close()
	s.m.Close()
}

// Collect drains the stream into a slice of copied rows (the iterator's
// reuse contract means FromRows-style aliasing is not safe here), then
// reports the stream's error. It does not close the stream.
func Collect(src Tuples) ([][]int, error) {
	var out [][]int
	//ecrpq:bounded each iteration consumes one source tuple; the source is finite
	for {
		row, ok := src.Next()
		if !ok {
			return out, src.Err()
		}
		out = append(out, append([]int(nil), row...))
	}
}

// rowKey packs a tuple into a map key.
func rowKey(row []int) string {
	buf := make([]byte, 4*len(row))
	for i, v := range row {
		buf[4*i] = byte(v)
		buf[4*i+1] = byte(v >> 8)
		buf[4*i+2] = byte(v >> 16)
		buf[4*i+3] = byte(v >> 24)
	}
	return string(buf)
}

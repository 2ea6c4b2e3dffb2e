package trace

import (
	"sync"
	"sync/atomic"
)

// Ring is a fixed-capacity circular buffer of finished traces. Writers
// overwrite the oldest entry; Recent renders newest-first snapshots. The
// ring keeps the *Trace itself: a trace is rendered only when something
// reads it, so a request whose trace nobody asks for never pays for a
// snapshot. Sizing: a retained trace is its arena — 16 spans and 16
// attributes inline, one 1 792-byte allocation, plus 768 bytes per further
// 16 spans and 1 536 per further 32 attributes — so the default 64-entry
// ring holds about 115 KiB of read hits, and a few times that of misses
// (see DESIGN.md).
type Ring struct {
	mu   sync.Mutex
	buf  []*Trace
	next int // index of the slot the next Add writes
	n    int // number of live entries, ≤ len(buf)
}

// NewRing returns a ring holding up to size traces (minimum 1).
func NewRing(size int) *Ring {
	if size < 1 {
		size = 1
	}
	return &Ring{buf: make([]*Trace, size)}
}

// Add stores a trace, evicting the oldest when full. Nil-safe on both
// receiver and argument.
func (r *Ring) Add(tr *Trace) {
	if r == nil || tr == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = tr
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Recent renders up to max traces, newest first (max ≤ 0 means all). A
// trace a late worker still writes to renders with its open spans clamped
// to the instant it is read. Nil-safe (returns nil).
func (r *Ring) Recent(max int) []TraceData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	n := r.n
	if max > 0 && max < n {
		n = max
	}
	trs := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		trs = append(trs, r.buf[(r.next-1-i+len(r.buf)*2)%len(r.buf)])
	}
	r.mu.Unlock()
	out := make([]TraceData, len(trs))
	for i, tr := range trs {
		out[i] = tr.Snapshot()
	}
	return out
}

// Tracer decides which requests get a trace and keeps the latest of them.
//
// Sampling rule: with SampleEvery = N, every Nth request is traced
// (counter-based, so a steady load sees a uniform 1/N). N ≤ 1 traces
// every request. A Tracer created with slow-query logging in mind should
// use N = 1: the slow-query log can only report a breakdown for requests
// that carry a trace, so the server forces sample-all whenever a
// -slow-query threshold is set (documented in DESIGN.md).
type Tracer struct {
	every  int64
	count  atomic.Int64
	nextID atomic.Uint64
	ring   *Ring
}

// NewTracer samples one request in sampleEvery (≤ 1 = all) and retains
// ringSize finished traces.
func NewTracer(sampleEvery, ringSize int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	if ringSize < 1 {
		ringSize = 64
	}
	return &Tracer{every: int64(sampleEvery), ring: NewRing(ringSize)}
}

// Sample returns a new trace when this request is selected, nil otherwise.
// A nil Tracer never samples. The returned trace has a unique id.
func (t *Tracer) Sample(name string) *Trace {
	if t == nil {
		return nil
	}
	if t.every > 1 && t.count.Add(1)%t.every != 0 {
		return nil
	}
	tr := New(name)
	tr.id = t.nextID.Add(1)
	return tr
}

// Collect finishes the trace and keeps it in the ring. Nil-safe on both
// receiver and argument.
func (t *Tracer) Collect(tr *Trace) {
	tr.Finish()
	if t != nil {
		t.ring.Add(tr)
	}
}

// Recent renders up to max retained traces, newest first. Nil-safe.
func (t *Tracer) Recent(max int) []TraceData {
	if t == nil {
		return nil
	}
	return t.ring.Recent(max)
}

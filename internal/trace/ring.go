package trace

import (
	"sync"
	"sync/atomic"
)

// Ring is a fixed-capacity circular buffer of trace snapshots. Writers
// overwrite the oldest entry; Recent returns newest-first copies. Sizing:
// each TraceData for a typical query holds 10–20 spans (~2 KiB), so the
// default 64-entry ring costs on the order of 128 KiB — see DESIGN.md.
type Ring struct {
	mu   sync.Mutex
	buf  []TraceData
	next int // index of the slot the next Add writes
	n    int // number of live entries, ≤ len(buf)
}

// NewRing returns a ring holding up to size snapshots (minimum 1).
func NewRing(size int) *Ring {
	if size < 1 {
		size = 1
	}
	return &Ring{buf: make([]TraceData, size)}
}

// Add stores a snapshot, evicting the oldest when full. Nil-safe.
func (r *Ring) Add(td TraceData) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = td
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Recent returns up to max snapshots, newest first (max ≤ 0 means all).
// Nil-safe (returns nil).
func (r *Ring) Recent(max int) []TraceData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]TraceData, 0, n)
	for i := 0; i < n; i++ {
		idx := (r.next - 1 - i + len(r.buf)*2) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// Tracer decides which requests get a trace and keeps their snapshots.
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
// ringSize snapshots.
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

// Collect finishes the trace, snapshots it into the ring, and returns the
// snapshot. Nil-safe on both receiver and argument.
func (t *Tracer) Collect(tr *Trace) TraceData {
	if tr == nil {
		return TraceData{}
	}
	tr.Finish()
	td := tr.Snapshot()
	if t != nil {
		t.ring.Add(td)
	}
	return td
}

// Recent returns up to max retained snapshots, newest first. Nil-safe.
func (t *Tracer) Recent(max int) []TraceData {
	if t == nil {
		return nil
	}
	return t.ring.Recent(max)
}

// Package trace is a zero-dependency span subsystem for attributing ECRPQ
// evaluation cost to pipeline stages: Lemma 4.1 component merge, Lemma 4.2
// product search, Lemma 4.3 sweep + CQ join, plus the server-side stages
// around them (parse, queue wait, plan cache, persistence).
//
// The design goal is that tracing costs ~zero when disabled. Every method
// on *Trace and *Span is nil-safe, and StartSpan on a context that carries
// no trace performs a single context.Value lookup and returns a nil span —
// no allocation, no atomic, no lock (BenchmarkTraceDisabled pins this at
// 0 allocs/op). Code therefore instruments unconditionally:
//
//	ctx, sp := trace.StartSpan(ctx, "core/sweep")
//	defer sp.End()
//	sp.SetInt("sources", int64(n))
//
// Attributes are typed (SetInt / SetStr) rather than interface-valued so
// the enabled path stays allocation-light too.
//
// Span names form a small fixed taxonomy (see DESIGN.md "Observability"):
//
//	server/parse        query text → AST
//	pool/queue_wait     admission queue dwell time
//	plancache/get|put   plan cache lookups and inserts
//	core/prepare        Prepare: decompose + strategy + merge + measures
//	core/decompose      component decomposition
//	core/merge          Lemma 4.1 synchronized merge
//	core/materialize    Lemma 4.3 R' build (parent of the sweeps)
//	core/sweep          per-component V^t source sweep (free tracks: tracks=1)
//	core/product_search Lemma 4.2 product search (generic strategy)
//	core/cq_join        tree-decomposition CQ join
//	core/witness        witness path recovery
//	persist/snapshot_write, persist/journal_append
package trace

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Attr is a typed key/value attribute. Exactly one of Str/Int is
// meaningful, per IsStr. Typed fields (rather than `any`) keep SetInt free
// of interface-boxing allocations.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// Span is one timed stage within a Trace. All methods are nil-safe: a nil
// *Span (the disabled path) ignores every call.
type Span struct {
	tr     *Trace
	id     int
	parent int // span id of parent, -1 for a root span
	name   string
	begin  time.Time
	end    time.Time // zero until End
	attrs  []Attr
}

// Trace collects the spans of one request or one CLI evaluation. A Trace
// is safe for concurrent use: pool workers may start and end spans while
// another goroutine snapshots it.
type Trace struct {
	id    uint64
	name  string
	begin time.Time

	mu    sync.Mutex
	end   time.Time // zero until Finish
	spans []*Span
	attrs []Attr
}

// New starts a trace whose clock begins now. The id is 0; the Tracer
// assigns unique ids to sampled request traces.
func New(name string) *Trace {
	return &Trace{name: name, begin: time.Now()}
}

// ctxKey carries a *traceRef in a context. The ref bundles the trace with
// the current parent span id so child spans nest without a second Value.
type ctxKey struct{}

type traceRef struct {
	tr     *Trace
	parent int // id of the span that owns this context, -1 at the root
}

// NewContext returns ctx carrying tr; spans started via StartSpan on the
// result attach to tr. A nil tr returns ctx unchanged, so callers can
// thread an optional trace without branching.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &traceRef{tr: tr, parent: -1})
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	if ref, ok := ctx.Value(ctxKey{}).(*traceRef); ok {
		return ref.tr
	}
	return nil
}

// StartSpan begins a span as a child of the span that owns ctx. When ctx
// carries no trace it returns (ctx, nil) without allocating — that is the
// production fast path. The returned context makes the new span the parent
// of any spans started from it.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	ref, ok := ctx.Value(ctxKey{}).(*traceRef)
	if !ok {
		return ctx, nil
	}
	sp := ref.tr.startChild(name, ref.parent, time.Now())
	return context.WithValue(ctx, ctxKey{}, &traceRef{tr: ref.tr, parent: sp.id}), sp
}

// Start begins a root-level span directly on the trace. Nil-safe.
func (t *Trace) Start(name string) *Span {
	return t.StartAt(name, time.Now())
}

// StartAt begins a root-level span whose clock started at a past instant
// — used for queue-wait spans, where the interval began when the job was
// submitted but the code that records it runs when the job is dequeued.
// Nil-safe.
func (t *Trace) StartAt(name string, at time.Time) *Span {
	if t == nil {
		return nil
	}
	return t.startChild(name, -1, at)
}

func (t *Trace) startChild(name string, parent int, at time.Time) *Span {
	t.mu.Lock()
	sp := &Span{tr: t, id: len(t.spans), parent: parent, name: name, begin: at}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// End closes the span. Calling End twice keeps the first end time.
// Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.tr.mu.Unlock()
}

// SetInt attaches an integer attribute. Nil-safe.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
	s.tr.mu.Unlock()
}

// SetStr attaches a string attribute. Nil-safe.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Str: v, IsStr: true})
	s.tr.mu.Unlock()
}

// SetInt attaches a trace-level integer attribute (plan snapshot fields:
// cc_vertex, treewidth, …). Nil-safe.
func (t *Trace) SetInt(key string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs = append(t.attrs, Attr{Key: key, Int: v})
	t.mu.Unlock()
}

// SetStr attaches a trace-level string attribute (db, strategy, cache
// state, …). Nil-safe.
func (t *Trace) SetStr(key, v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs = append(t.attrs, Attr{Key: key, Str: v, IsStr: true})
	t.mu.Unlock()
}

// Finish closes the trace clock. Spans still open keep running until
// their own End; Snapshot clamps them to the snapshot instant. Nil-safe.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if t.end.IsZero() {
		t.end = now
	}
	t.mu.Unlock()
}

// Duration is the trace wall time: Finish−begin, or time-so-far if the
// trace is still open. Nil-safe (returns 0).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.end.IsZero() {
		return time.Since(t.begin)
	}
	return t.end.Sub(t.begin)
}

// SpanData is the exported snapshot of one span. Times are microseconds
// relative to the trace begin, which is what the Chrome trace_event format
// wants and keeps JSON small.
type SpanData struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"` // -1 for root spans
	Name    string         `json:"name"`
	StartUs float64        `json:"start_us"`
	DurUs   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// TraceData is an immutable snapshot of a finished (or in-flight) trace,
// safe to hold in the ring buffer and serialize.
type TraceData struct {
	ID    uint64         `json:"id"`
	Name  string         `json:"name"`
	Begin time.Time      `json:"begin"`
	DurMs float64        `json:"dur_ms"`
	Attrs map[string]any `json:"attrs,omitempty"`
	Spans []SpanData     `json:"spans"`
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.IsStr {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Int
		}
	}
	return m
}

// Snapshot copies the trace into plain exported structs. Open spans and an
// open trace are clamped to the snapshot instant so a mid-flight snapshot
// is still well-formed. Nil-safe (returns the zero TraceData).
func (t *Trace) Snapshot() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Read the clock under the lock: a span begun between an earlier
	// reading and the lock would otherwise snapshot with a negative
	// duration.
	now := time.Now()
	end := t.end
	if end.IsZero() {
		end = now
	}
	td := TraceData{
		ID:    t.id,
		Name:  t.name,
		Begin: t.begin,
		DurMs: float64(end.Sub(t.begin)) / float64(time.Millisecond),
		Attrs: attrMap(t.attrs),
		Spans: make([]SpanData, 0, len(t.spans)),
	}
	for _, sp := range t.spans {
		se := sp.end
		if se.IsZero() {
			se = now
		}
		td.Spans = append(td.Spans, SpanData{
			ID:      sp.id,
			Parent:  sp.parent,
			Name:    sp.name,
			StartUs: float64(sp.begin.Sub(t.begin)) / float64(time.Microsecond),
			DurUs:   float64(se.Sub(sp.begin)) / float64(time.Microsecond),
			Attrs:   attrMap(sp.attrs),
		})
	}
	return td
}

// Stage is one row of a per-stage breakdown: the self time (span duration
// minus direct children) summed over all spans with the same name.
type Stage struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	SelfUs  float64 `json:"self_us"`
	TotalUs float64 `json:"total_us"`
	// Attrs are the span's attributes when the stage is a single span
	// (its work counters: what made it cheap or dear); stages made of
	// several spans carry none, their per-span attributes are in Spans.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Breakdown aggregates spans by name into self-time stages, sorted by
// self time descending. Self time (duration minus direct children) makes
// the stage percentages of a nested trace sum to ≤ 100%, which is what
// "stage X dominates" should mean.
func (td TraceData) Breakdown() []Stage {
	childSum := make(map[int]float64) // parent span id → Σ children DurUs
	for _, sp := range td.Spans {
		if sp.Parent >= 0 {
			childSum[sp.Parent] += sp.DurUs
		}
	}
	byName := make(map[string]*Stage)
	order := []string{}
	for _, sp := range td.Spans {
		st := byName[sp.Name]
		if st == nil {
			st = &Stage{Name: sp.Name}
			byName[sp.Name] = st
			order = append(order, sp.Name)
		}
		st.Count++
		st.Attrs = nil
		if st.Count == 1 {
			st.Attrs = sp.Attrs
		}
		st.TotalUs += sp.DurUs
		self := sp.DurUs - childSum[sp.ID]
		if self < 0 {
			self = 0
		}
		st.SelfUs += self
	}
	out := make([]Stage, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfUs != out[j].SelfUs {
			return out[i].SelfUs > out[j].SelfUs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

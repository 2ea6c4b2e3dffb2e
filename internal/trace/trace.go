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
// Attributes are typed (SetInt / SetStr) rather than interface-valued, and
// spans and attributes live in per-trace storage, so the enabled path costs
// about one allocation per span.
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

// attr is a typed key/value attribute of the trace (span -1) or of one of
// its spans. Typed fields (rather than `any`) keep SetInt free of
// interface-boxing allocations.
type attr struct {
	span  int32
	isStr bool
	key   string
	str   string
	num   int64
}

// chunkSpans is the size of a span-arena chunk. A chunk is never moved once
// allocated, so a *Span handed out stays valid however many spans follow.
const chunkSpans = 16

// inlineAttrs is how many attributes a trace holds inline (a read hit sets
// ten); chunkAttrs is the size of each chunk its attribute log adds after
// them, large enough that a span setting one attribute adds 1/32 of an
// allocation.
const (
	inlineAttrs = 16
	chunkAttrs  = 32
)

// Span is one timed stage within a Trace. All methods are nil-safe: a nil
// *Span (the disabled path) ignores every call.
type Span struct {
	ref   traceRef // its trace, id and parent: the context carrier of its children
	name  string
	begin time.Duration // since the trace's begin, on the monotonic clock
	end   time.Duration // since the trace's begin; -1 until End
}

// Trace collects the spans of one request or one CLI evaluation. A Trace
// is safe for concurrent use: pool workers may start and end spans while
// another goroutine renders it.
//
// Its spans live in an arena of fixed-size chunks, the first inline, and
// its attributes — trace-level and per span — in one log that starts in an
// inline array and goes on in chunks, so an enabled span costs about one
// allocation: the context.WithValue that carries it.
type Trace struct {
	id    uint64
	name  string
	begin time.Time
	root  traceRef // the context carrier of root-level spans

	mu        sync.Mutex
	end       time.Time // zero until Finish
	n         int32     // spans started
	nattrs    int32     // attributes set
	first     [chunkSpans]Span
	more      []*[chunkSpans]Span // the chunks after first
	attrs     [inlineAttrs]attr
	moreAttrs []*[chunkAttrs]attr // the chunks after attrs
}

// New starts a trace whose clock begins now. The id is 0; the Tracer
// assigns unique ids to sampled request traces.
func New(name string) *Trace {
	t := &Trace{name: name, begin: time.Now()}
	t.root = traceRef{tr: t, id: -1, parent: -1}
	return t
}

// ctxKey carries a *traceRef in a context. The ref bundles the trace with
// the current parent span id so child spans nest without a second Value.
type ctxKey struct{}

type traceRef struct {
	tr     *Trace
	id     int32 // the span that owns this context, -1 at the root
	parent int32 // that span's parent, -1 for a root span
}

// NewContext returns ctx carrying tr; spans started via StartSpan on the
// result attach to tr. A nil tr returns ctx unchanged, so callers can
// thread an optional trace without branching.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &tr.root)
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
	sp := ref.tr.startChild(name, ref.id, time.Now())
	return context.WithValue(ctx, ctxKey{}, &sp.ref), sp
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

func (t *Trace) startChild(name string, parent int32, at time.Time) *Span {
	t.mu.Lock()
	id := t.n
	if k := id - chunkSpans; k >= 0 && k%chunkSpans == 0 {
		t.more = append(t.more, new([chunkSpans]Span))
	}
	t.n++
	sp := t.span(id)
	*sp = Span{ref: traceRef{tr: t, id: id, parent: parent}, name: name, begin: at.Sub(t.begin), end: -1}
	t.mu.Unlock()
	return sp
}

// span returns span id's slot; the caller holds t.mu.
func (t *Trace) span(id int32) *Span {
	if id < chunkSpans {
		return &t.first[id]
	}
	k := id - chunkSpans
	return &t.more[k/chunkSpans][k%chunkSpans]
}

// attrAt returns attribute i's slot; the caller holds t.mu.
func (t *Trace) attrAt(i int32) *attr {
	if i < inlineAttrs {
		return &t.attrs[i]
	}
	k := i - inlineAttrs
	return &t.moreAttrs[k/chunkAttrs][k%chunkAttrs]
}

// End closes the span. Calling End twice keeps the first end time.
// Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.ref.tr
	end := time.Since(t.begin)
	t.mu.Lock()
	if s.end < 0 {
		s.end = end
	}
	t.mu.Unlock()
}

// SetInt attaches an integer attribute. Nil-safe.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.ref.tr.set(attr{span: s.ref.id, key: key, num: v})
}

// SetStr attaches a string attribute. Nil-safe.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.ref.tr.set(attr{span: s.ref.id, key: key, str: v, isStr: true})
}

// SetInt attaches a trace-level integer attribute (plan snapshot fields:
// cc_vertex, treewidth, …). Nil-safe.
func (t *Trace) SetInt(key string, v int64) {
	if t == nil {
		return
	}
	t.set(attr{span: -1, key: key, num: v})
}

// SetStr attaches a trace-level string attribute (db, strategy, cache
// state, …). Nil-safe.
func (t *Trace) SetStr(key, v string) {
	if t == nil {
		return
	}
	t.set(attr{span: -1, key: key, str: v, isStr: true})
}

func (t *Trace) set(a attr) {
	t.mu.Lock()
	if k := t.nattrs - inlineAttrs; k >= 0 && k%chunkAttrs == 0 {
		t.moreAttrs = append(t.moreAttrs, new([chunkAttrs]attr))
	}
	*t.attrAt(t.nattrs) = a
	t.nattrs++
	t.mu.Unlock()
}

// Finish closes the trace clock. Spans still open keep running until
// their own End; Snapshot clamps them to the instant it reads them.
// Nil-safe.
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

// value is the attribute's value as a snapshot carries it.
func (a attr) value() any {
	if a.isStr {
		return a.str
	}
	return a.num
}

// Snapshot renders the trace into plain exported structs. Open spans and
// an open trace are clamped to the instant of the call, so a mid-flight
// snapshot is still well-formed. A trace is rendered only when something
// reads it: the ring keeps the *Trace, not its snapshot. Nil-safe
// (returns the zero TraceData).
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
		Spans: make([]SpanData, t.n),
	}
	open := now.Sub(t.begin)
	for id := range td.Spans {
		sp := t.span(int32(id))
		se := sp.end
		if se < 0 {
			se = open
		}
		td.Spans[id] = SpanData{
			ID:      id,
			Parent:  int(sp.ref.parent),
			Name:    sp.name,
			StartUs: float64(sp.begin) / float64(time.Microsecond),
			DurUs:   float64(se-sp.begin) / float64(time.Microsecond),
		}
	}
	// The log is in call order, so a key set twice keeps its last value.
	for i := int32(0); i < t.nattrs; i++ {
		a := t.attrAt(i)
		m := &td.Attrs
		if a.span >= 0 {
			m = &td.Spans[a.span].Attrs
		}
		if *m == nil {
			*m = make(map[string]any)
		}
		(*m)[a.key] = a.value()
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

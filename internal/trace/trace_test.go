package trace

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestStartSpanNesting(t *testing.T) {
	tr := New("req")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext lost the trace")
	}
	ctx1, a := StartSpan(ctx, "core/prepare")
	_, b := StartSpan(ctx1, "core/merge")
	b.SetInt("merged_states", 42)
	b.End()
	a.End()
	_, c := StartSpan(ctx, "core/cq_join")
	c.SetStr("kind", "treedecomp")
	c.End()
	tr.SetStr("db", "g1")
	tr.Finish()

	td := tr.Snapshot()
	if len(td.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(td.Spans))
	}
	if td.Spans[0].Parent != -1 || td.Spans[2].Parent != -1 {
		t.Errorf("root spans have parents %d, %d; want -1", td.Spans[0].Parent, td.Spans[2].Parent)
	}
	if td.Spans[1].Parent != td.Spans[0].ID {
		t.Errorf("merge parent = %d, want %d", td.Spans[1].Parent, td.Spans[0].ID)
	}
	if got := td.Spans[1].Attrs["merged_states"]; got != int64(42) {
		t.Errorf("merged_states = %v (%T), want 42", got, got)
	}
	if got := td.Attrs["db"]; got != "g1" {
		t.Errorf("trace attr db = %v", got)
	}
}

func TestDisabledPathIsInert(t *testing.T) {
	ctx := context.Background()
	if tr := FromContext(ctx); tr != nil {
		t.Fatal("unexpected trace in background context")
	}
	ctx2, sp := StartSpan(ctx, "noop")
	if sp != nil {
		t.Fatal("got a span without a trace")
	}
	if ctx2 != ctx {
		t.Fatal("disabled StartSpan must return ctx unchanged")
	}
	// All of these must be no-ops, not panics.
	sp.End()
	sp.SetInt("k", 1)
	sp.SetStr("k", "v")
	var tr *Trace
	tr.Finish()
	tr.SetInt("k", 1)
	tr.SetStr("k", "v")
	tr.Start("x").End()
	if d := tr.Duration(); d != 0 {
		t.Errorf("nil trace duration = %v", d)
	}
	if td := tr.Snapshot(); len(td.Spans) != 0 {
		t.Errorf("nil trace snapshot has spans")
	}
	if NewContext(ctx, nil) != ctx {
		t.Error("NewContext(nil) must return ctx unchanged")
	}
}

// TestTraceDisabledZeroAlloc pins the acceptance requirement directly:
// the disabled path performs zero heap allocations.
func TestTraceDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := StartSpan(ctx, "core/product_search")
		sp.SetInt("product_checks", 123)
		sp.SetStr("strategy", "generic")
		sp.End()
		_ = ctx2
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan path allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkTraceDisabled sizes the disabled path that
// TestTraceDisabledZeroAlloc holds at zero allocations.
func BenchmarkTraceDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx2, sp := StartSpan(ctx, "core/product_search")
		sp.SetInt("product_checks", int64(i))
		sp.End()
		_ = ctx2
	}
}

// enabledSpan is one traced stage as instrumented code writes it.
func enabledSpan(ctx context.Context, v int64) {
	_, sp := StartSpan(ctx, "core/sweep")
	sp.SetInt("sources", v)
	sp.End()
}

func BenchmarkTraceEnabled(b *testing.B) {
	tr := New("bench")
	ctx := NewContext(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enabledSpan(ctx, int64(i))
	}
}

// TestTraceEnabledAllocs holds an enabled span to about one allocation —
// the context.WithValue that carries it — with its chunk of the span arena
// and its attribute's share of the log amortised over many spans: 4 when
// each span, its context carrier and its attributes were allocated apart.
// It counts mallocs itself: testing.AllocsPerRun truncates to an integer.
func TestTraceEnabledAllocs(t *testing.T) {
	tr := New("allocs")
	ctx := NewContext(context.Background(), tr)
	const spans = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < spans; i++ {
		enabledSpan(ctx, int64(i))
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / spans
	t.Logf("%.3f allocations per enabled span", per)
	if per > 1.1 {
		t.Fatalf("enabled span path allocates %.3f allocs/op, want ≤ 1.1", per)
	}
}

// TestConcurrentSpans interleaves spans from many goroutines — the shape
// of pool workers tracing into one request trace — under -race, with
// snapshots taken mid-flight.
func TestConcurrentSpans(t *testing.T) {
	tr := New("concurrent")
	ctx := NewContext(context.Background(), tr)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshot reader, as /debug/trace/recent would do.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				td := tr.Snapshot()
				for _, sp := range td.Spans {
					if sp.DurUs < 0 {
						t.Errorf("negative span duration %v", sp.DurUs)
						return
					}
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx1, sp := StartSpan(ctx, "core/sweep")
				sp.SetInt("worker", int64(w))
				_, inner := StartSpan(ctx1, "core/product_search")
				inner.End()
				sp.End()
			}
		}(w)
	}
	// Wait for the span writers (all Add'd above), then stop the reader.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish on their own; the reader needs the stop signal. Close
	// stop once only writers remain: poll the span count.
	for {
		td := tr.Snapshot()
		if len(td.Spans) >= workers*perWorker*2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	tr.Finish()
	td := tr.Snapshot()
	if got := len(td.Spans); got != workers*perWorker*2 {
		t.Fatalf("spans = %d, want %d", got, workers*perWorker*2)
	}
	// Every inner span must be parented by a sweep span from this trace.
	names := map[int]string{}
	for _, sp := range td.Spans {
		names[sp.ID] = sp.Name
	}
	for _, sp := range td.Spans {
		if sp.Name == "core/product_search" && names[sp.Parent] != "core/sweep" {
			t.Fatalf("inner span parented by %q", names[sp.Parent])
		}
	}
}

func TestBreakdownSelfTime(t *testing.T) {
	td := TraceData{
		Spans: []SpanData{
			{ID: 0, Parent: -1, Name: "core/prepare", StartUs: 0, DurUs: 100},
			{ID: 1, Parent: 0, Name: "core/merge", StartUs: 10, DurUs: 80, Attrs: map[string]any{"merged_states": int64(7)}},
			{ID: 2, Parent: -1, Name: "core/sweep", StartUs: 100, DurUs: 300, Attrs: map[string]any{"component": int64(0)}},
			{ID: 3, Parent: -1, Name: "core/sweep", StartUs: 400, DurUs: 100, Attrs: map[string]any{"component": int64(1)}},
		},
	}
	stages := td.Breakdown()
	bySelf := map[string]float64{}
	byCount := map[string]int{}
	for _, st := range stages {
		bySelf[st.Name] = st.SelfUs
		byCount[st.Name] = st.Count
		// A single-span stage shows its span's attributes; one made of
		// several spans has no attributes of its own.
		switch st.Name {
		case "core/merge":
			if st.Attrs["merged_states"] != int64(7) {
				t.Errorf("merge attrs = %v, want its span's", st.Attrs)
			}
		default:
			if st.Attrs != nil {
				t.Errorf("%s attrs = %v, want none", st.Name, st.Attrs)
			}
		}
	}
	if bySelf["core/prepare"] != 20 { // 100 − child 80
		t.Errorf("prepare self = %v, want 20", bySelf["core/prepare"])
	}
	if bySelf["core/merge"] != 80 {
		t.Errorf("merge self = %v, want 80", bySelf["core/merge"])
	}
	if bySelf["core/sweep"] != 400 || byCount["core/sweep"] != 2 {
		t.Errorf("sweep self = %v count = %d, want 400/2", bySelf["core/sweep"], byCount["core/sweep"])
	}
	// Sorted by self time descending: sweep first.
	if stages[0].Name != "core/sweep" {
		t.Errorf("dominant stage = %q, want core/sweep", stages[0].Name)
	}
}

func TestRingEvictionOrder(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		tr := New("req")
		tr.id = uint64(i)
		r.Add(tr)
	}
	got := r.Recent(0)
	if len(got) != 3 {
		t.Fatalf("recent = %d entries, want 3", len(got))
	}
	for i, want := range []uint64{5, 4, 3} {
		if got[i].ID != want {
			t.Errorf("recent[%d].ID = %d, want %d", i, got[i].ID, want)
		}
	}
	if got := r.Recent(2); len(got) != 2 || got[0].ID != 5 {
		t.Errorf("recent(2) = %+v", got)
	}
	// A nil trace is not kept: the ring still holds 5, 4, 3.
	r.Add(nil)
	if got := r.Recent(0); len(got) != 3 || got[0].ID != 5 {
		t.Errorf("after Add(nil): recent = %+v", got)
	}
	var nilRing *Ring
	nilRing.Add(New("x"))
	if nilRing.Recent(0) != nil {
		t.Error("nil ring must return nil")
	}
}

// TestRingRendersWhenRead: the ring keeps the trace, so what it renders is
// the trace as it stands when read — an attribute set after Collect shows,
// and a span still open is clamped to the read instant, not to the finish.
func TestRingRendersWhenRead(t *testing.T) {
	tc := NewTracer(1, 4)
	tr := tc.Sample("q")
	late := tr.Start("late")
	tc.Collect(tr)
	tr.SetStr("after", "collect")
	time.Sleep(2 * time.Millisecond)
	td := tc.Recent(0)[0]
	if td.Attrs["after"] != "collect" {
		t.Errorf("attrs = %v, want the one set after Collect", td.Attrs)
	}
	if sp := td.Spans[0]; sp.StartUs+sp.DurUs <= td.DurMs*1000 {
		t.Errorf("open span ends at %vus, within the trace's %vms: want it clamped to the read instant", sp.StartUs+sp.DurUs, td.DurMs)
	}
	late.End()
	end := tc.Recent(0)[0].Spans[0].DurUs
	time.Sleep(2 * time.Millisecond)
	if again := tc.Recent(0)[0].Spans[0].DurUs; again != end {
		t.Errorf("an ended span's duration moved between reads: %v → %v", end, again)
	}
}

// TestRingRecentWhileWorkerEnds renders the ring while a late pool worker
// still starts and ends spans on a collected trace (run under -race).
func TestRingRecentWhileWorkerEnds(t *testing.T) {
	tc := NewTracer(1, 2)
	tr := tc.Sample("q")
	ctx := NewContext(context.Background(), tr)
	_, held := StartSpan(ctx, "core/sweep")
	tc.Collect(tr)
	const spans = 3 * chunkSpans
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < spans; i++ {
			_, sp := StartSpan(ctx, "core/product_search")
			sp.SetInt("i", int64(i))
			sp.End()
		}
		held.End()
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for _, td := range tc.Recent(0) {
			for _, sp := range td.Spans {
				if sp.DurUs < 0 {
					t.Fatalf("negative span duration %v", sp.DurUs)
				}
			}
		}
	}
	td := tc.Recent(0)[0]
	if len(td.Spans) != spans+1 {
		t.Fatalf("spans = %d, want %d", len(td.Spans), spans+1)
	}
	for i, sp := range td.Spans[1:] {
		if sp.Attrs["i"] != int64(i) {
			t.Errorf("span %d attrs = %v, want i=%d", i+1, sp.Attrs, i)
		}
	}
}

// TestSpanArenaKeepsHandedOutSpans: a *Span handed out stays the span the
// trace renders however many spans follow it. Spans enough to fill several
// chunks are all started before any ends, then ended in reverse, the first
// last; an arena regrown by append would take an End into a dead copy and
// render that span still open.
func TestSpanArenaKeepsHandedOutSpans(t *testing.T) {
	tr := New("req")
	ctx := NewContext(context.Background(), tr)
	ctx1, first := StartSpan(ctx, "first")
	held := []*Span{first}
	for i := 0; i < 3*chunkSpans; i++ {
		_, sp := StartSpan(ctx1, "child")
		held = append(held, sp)
	}
	for i := len(held) - 1; i >= 0; i-- {
		held[i].SetInt("i", int64(i))
		held[i].End()
	}
	tr.Finish()
	time.Sleep(2 * time.Millisecond)
	td := tr.Snapshot()
	if len(td.Spans) != len(held) {
		t.Fatalf("spans = %d, want %d", len(td.Spans), len(held))
	}
	for i, sp := range td.Spans {
		if end := sp.StartUs + sp.DurUs; end > td.DurMs*1000 || sp.Attrs["i"] != int64(i) {
			t.Fatalf("span %d %+v ends at %vus past the trace's %vms end, or without its attribute", i, sp, end, td.DurMs)
		}
		if want := map[bool]int{true: -1, false: 0}[i == 0]; sp.Parent != want {
			t.Fatalf("span %d has parent %d, want %d", i, sp.Parent, want)
		}
	}
}

func TestTracerSampling(t *testing.T) {
	tc := NewTracer(3, 8)
	sampled := 0
	for i := 0; i < 30; i++ {
		if tr := tc.Sample("q"); tr != nil {
			sampled++
			tc.Collect(tr)
		}
	}
	if sampled != 10 {
		t.Errorf("sampled %d of 30 with 1-in-3, want 10", sampled)
	}
	if got := len(tc.Recent(0)); got != 8 {
		t.Errorf("ring holds %d, want 8 (ring size)", got)
	}
	// IDs must be unique and increasing in collection order.
	rec := tc.Recent(0)
	for i := 1; i < len(rec); i++ {
		if rec[i-1].ID <= rec[i].ID {
			t.Errorf("ids not newest-first: %d then %d", rec[i-1].ID, rec[i].ID)
		}
	}
	// Sample-all tracer.
	all := NewTracer(1, 4)
	for i := 0; i < 5; i++ {
		if all.Sample("q") == nil {
			t.Fatal("sample-every-1 returned nil")
		}
	}
	// Nil tracer never samples, Collect is still safe.
	var nilT *Tracer
	if nilT.Sample("q") != nil {
		t.Error("nil tracer sampled")
	}
	nilT.Collect(nil)
	nilT.Collect(New("x"))
	if nilT.Recent(1) != nil {
		t.Error("nil tracer has recents")
	}
}

func TestStartAtBackdatesSpan(t *testing.T) {
	tr := New("req")
	submitted := time.Now()
	time.Sleep(5 * time.Millisecond)
	sp := tr.StartAt("pool/queue_wait", submitted)
	sp.End()
	tr.Finish()
	td := tr.Snapshot()
	if len(td.Spans) != 1 {
		t.Fatalf("spans = %d", len(td.Spans))
	}
	if td.Spans[0].DurUs < 4000 {
		t.Errorf("backdated span dur = %vus, want ≥ ~5000", td.Spans[0].DurUs)
	}
}

func TestDoubleEndKeepsFirst(t *testing.T) {
	tr := New("req")
	sp := tr.Start("s")
	sp.End()
	first := tr.Snapshot().Spans[0].DurUs
	time.Sleep(2 * time.Millisecond)
	sp.End()
	second := tr.Snapshot().Spans[0].DurUs
	if first != second {
		t.Errorf("second End changed duration: %v → %v", first, second)
	}
}

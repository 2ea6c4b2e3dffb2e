package govern

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// Granted returns the bytes currently held at the broker.
func (r *Reservation) Granted() int64 {
	if r == nil {
		return 0
	}
	return r.granted.Load()
}

func TestBrokerAcquireRelease(t *testing.T) {
	b := NewBroker(1000)
	if !b.TryAcquire(600) {
		t.Fatal("first acquire should fit")
	}
	if !b.TryAcquire(400) {
		t.Fatal("second acquire should exactly fill the budget")
	}
	if b.TryAcquire(1) {
		t.Fatal("acquire past the budget must be denied")
	}
	b.Release(400)
	if !b.TryAcquire(300) {
		t.Fatal("released bytes should be reusable")
	}
	st := b.Stats()
	if st.ReservedBytes != 900 {
		t.Fatalf("reserved = %d, want 900", st.ReservedBytes)
	}
	if st.PeakBytes != 1000 {
		t.Fatalf("peak = %d, want 1000", st.PeakBytes)
	}
	if st.Denials != 1 {
		t.Fatalf("denials = %d, want 1", st.Denials)
	}
}

func TestBrokerUnlimitedStillAccounts(t *testing.T) {
	b := NewBroker(0)
	if !b.TryAcquire(1 << 40) {
		t.Fatal("unlimited broker must always grant")
	}
	if got := b.Reserved(); got != 1<<40 {
		t.Fatalf("reserved = %d, want %d", got, int64(1)<<40)
	}
	if b.Stats().PeakBytes != 1<<40 {
		t.Fatal("peak should track even without a budget")
	}
}

func TestBrokerReleaseClampsAtZero(t *testing.T) {
	b := NewBroker(100)
	b.Release(50) // release without acquire: caller bug, must not mint budget
	if got := b.Reserved(); got != 0 {
		t.Fatalf("reserved = %d, want 0 after spurious release", got)
	}
	if !b.TryAcquire(100) {
		t.Fatal("full budget should still be available")
	}
	if b.TryAcquire(1) {
		t.Fatal("spurious release must not create phantom budget")
	}
}

func TestNilBrokerAndReservation(t *testing.T) {
	var b *Broker
	if !b.TryAcquire(1 << 50) {
		t.Fatal("nil broker must grant everything")
	}
	b.Release(1)
	r, err := b.Reserve(1 << 20)
	if err != nil || r != nil {
		t.Fatalf("nil broker Reserve = (%v, %v), want (nil, nil)", r, err)
	}
	if err := r.Grow(1 << 30); err != nil {
		t.Fatalf("nil reservation Grow: %v", err)
	}
	r.Shrink(5)
	r.Release()
	if r.Used() != 0 || r.Peak() != 0 || r.Granted() != 0 {
		t.Fatal("nil reservation stats must be zero")
	}
	m := r.NewMeter()
	if m != nil {
		t.Fatal("nil reservation must yield a nil meter")
	}
	if err := m.Grow(1); err != nil {
		t.Fatalf("nil meter Grow: %v", err)
	}
	if err := m.Charge(-1); err != nil {
		t.Fatalf("nil meter Charge: %v", err)
	}
	m.Close()
}

func TestReservationChunkedGrow(t *testing.T) {
	b := NewBroker(10 << 20)
	r, err := b.Reserve(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	if got := b.Reserved(); got != 1<<10 {
		t.Fatalf("initial grant = %d, want %d", got, 1<<10)
	}
	// Growing within the grant must not touch the broker.
	if err := r.Grow(512); err != nil {
		t.Fatal(err)
	}
	if got := b.Reserved(); got != 1<<10 {
		t.Fatalf("grow within grant changed broker reserved to %d", got)
	}
	// Growing past the grant pulls a whole chunk.
	if err := r.Grow(1 << 10); err != nil {
		t.Fatal(err)
	}
	if got := b.Reserved(); got != (1<<10)+reserveChunk {
		t.Fatalf("broker reserved = %d, want %d", got, (1<<10)+reserveChunk)
	}
	// Shrink keeps the grant (hysteresis): regrow is broker-free.
	before := b.Reserved()
	r.Shrink(1 << 10)
	if err := r.Grow(1 << 10); err != nil {
		t.Fatal(err)
	}
	if got := b.Reserved(); got != before {
		t.Fatalf("shrink/regrow touched the broker: %d != %d", got, before)
	}
}

func TestReservationDenialRollsBack(t *testing.T) {
	b := NewBroker(reserveChunk)
	r, err := b.Reserve(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	if err := r.Grow(reserveChunk); err != nil {
		t.Fatal(err)
	}
	used := r.Used()
	err = r.Grow(1)
	if !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("grow past budget = %v, want ErrResourceExhausted", err)
	}
	if got := r.Used(); got != used {
		t.Fatalf("denied grow leaked charge: used = %d, want %d", got, used)
	}
	// The reservation stays valid after a denial.
	r.Shrink(1)
	if err := r.Grow(1); err != nil {
		t.Fatalf("grow within grant after denial: %v", err)
	}
}

func TestReservationReleaseIdempotent(t *testing.T) {
	b := NewBroker(1 << 20)
	r, err := b.Reserve(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	r.Release()
	r.Release()
	if got := b.Reserved(); got != 0 {
		t.Fatalf("broker reserved = %d after double release, want 0", got)
	}
	if err := r.Grow(1); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("grow after release = %v, want ErrResourceExhausted", err)
	}
}

func TestReservationConcurrentGrow(t *testing.T) {
	b := NewBroker(0)
	r, err := b.Reserve(0)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 2000
	meters := make([]*Meter, workers)
	for w := range meters {
		meters[w] = r.NewMeter()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(m *Meter) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := m.Grow(64); err != nil {
					t.Error(err)
					return
				}
			}
		}(meters[w])
	}
	wg.Wait()
	if got := r.Used(); got != workers*per*64 {
		t.Fatalf("used = %d with all meters open, want %d", got, workers*per*64)
	}
	for _, m := range meters {
		m.Close()
	}
	if got := r.Used(); got != 0 {
		t.Fatalf("used = %d after all meters closed, want 0", got)
	}
	if peak := r.Peak(); peak != workers*per*64 {
		t.Fatalf("peak = %d, want %d", peak, workers*per*64)
	}
	r.Release()
	if got := b.Reserved(); got != 0 {
		t.Fatalf("broker reserved = %d after release, want 0", got)
	}
}

func TestMeterChargeSignedDelta(t *testing.T) {
	b := NewBroker(0)
	r, _ := b.Reserve(0)
	defer r.Release()
	m := r.NewMeter()
	if err := m.Charge(100); err != nil {
		t.Fatal(err)
	}
	if err := m.Charge(-30); err != nil {
		t.Fatal(err)
	}
	if got := m.Charged(); got != 70 {
		t.Fatalf("charged = %d, want 70", got)
	}
	// Releasing more than held clamps to zero instead of going negative.
	if err := m.Charge(-1000); err != nil {
		t.Fatal(err)
	}
	if got := m.Charged(); got != 0 {
		t.Fatalf("charged = %d, want 0 after over-release", got)
	}
	if got := r.Used(); got != 0 {
		t.Fatalf("reservation used = %d, want 0", got)
	}
	m.Close()
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("bare context should carry no reservation")
	}
	if NewContext(ctx, nil) != ctx {
		t.Fatal("attaching nil must return ctx unchanged")
	}
	b := NewBroker(1 << 20)
	r, _ := b.Reserve(0)
	defer r.Release()
	if got := FromContext(NewContext(ctx, r)); got != r {
		t.Fatalf("FromContext = %p, want %p", got, r)
	}
}

func TestQuotaTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	q := NewQuota(QuotaConfig{RatePerSec: 2, Burst: 2})
	q.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := q.Allow("c1"); !ok {
			t.Fatalf("burst request %d should pass", i)
		}
	}
	ok, retry := q.Allow("c1")
	if ok {
		t.Fatal("third immediate request must be limited")
	}
	if retry <= 0 || retry > 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 500ms] at 2 rps", retry)
	}
	// Other clients have their own buckets.
	if ok, _ := q.Allow("c2"); !ok {
		t.Fatal("fresh client must not be limited by c1")
	}
	// After the advertised wait, one token has refilled.
	now = now.Add(retry)
	if ok, _ := q.Allow("c1"); !ok {
		t.Fatal("request after Retry-After should pass")
	}
	if ok, _ := q.Allow("c1"); ok {
		t.Fatal("only one token should have refilled")
	}
}

func TestQuotaNilAndDisabled(t *testing.T) {
	if q := NewQuota(QuotaConfig{RatePerSec: 0}); q != nil {
		t.Fatal("rate 0 should disable quota")
	}
	var q *Quota
	if ok, retry := q.Allow("anyone"); !ok || retry != 0 {
		t.Fatal("nil quota must admit everything")
	}
}

func TestQuotaEvictsStalest(t *testing.T) {
	now := time.Unix(1000, 0)
	q := NewQuota(QuotaConfig{RatePerSec: 1, Burst: 1, MaxClients: 2})
	q.now = func() time.Time { return now }
	q.Allow("old")
	now = now.Add(time.Second)
	q.Allow("mid")
	now = now.Add(time.Second)
	q.Allow("new") // map at capacity: "old" is recycled
	if len(q.buckets) != 2 {
		t.Fatalf("bucket count = %d, want 2", len(q.buckets))
	}
	if _, ok := q.buckets["old"]; ok {
		t.Fatal("stalest bucket should have been evicted")
	}
}

func TestShedderQueueWait(t *testing.T) {
	s := NewShedder(ShedConfig{QueueWaitP99: 10 * time.Millisecond, MinSamples: 4, Window: 16}, nil)
	if shed, _ := s.ShouldShed(PriorityLow); shed {
		t.Fatal("cold shedder must not shed")
	}
	for i := 0; i < 8; i++ {
		s.Observe(50 * time.Millisecond)
	}
	shed, reason := s.ShouldShed(PriorityLow)
	if !shed || reason != "queue_wait" {
		t.Fatalf("ShouldShed(low) = (%v, %q), want (true, queue_wait)", shed, reason)
	}
	// Normal and high priority are never shed.
	if shed, _ := s.ShouldShed(PriorityNormal); shed {
		t.Fatal("normal priority must not be shed")
	}
	if shed, _ := s.ShouldShed(PriorityHigh); shed {
		t.Fatal("high priority must not be shed")
	}
	// The window recovers once waits drop.
	for i := 0; i < 16; i++ {
		s.Observe(time.Millisecond)
	}
	if shed, _ := s.ShouldShed(PriorityLow); shed {
		t.Fatal("shedder should recover when waits fall")
	}
}

func TestShedderMemoryFraction(t *testing.T) {
	b := NewBroker(1000)
	s := NewShedder(ShedConfig{MemFraction: 0.5}, b)
	if shed, _ := s.ShouldShed(PriorityLow); shed {
		t.Fatal("empty ledger must not shed")
	}
	b.TryAcquire(600)
	shed, reason := s.ShouldShed(PriorityLow)
	if !shed || reason != "memory" {
		t.Fatalf("ShouldShed(low) = (%v, %q), want (true, memory)", shed, reason)
	}
	b.Release(600)
	if shed, _ := s.ShouldShed(PriorityLow); shed {
		t.Fatal("shedder should recover when memory is released")
	}
}

func TestNilShedder(t *testing.T) {
	var s *Shedder
	s.Observe(time.Hour)
	if p := s.WaitP99(); p != 0 {
		t.Fatal("nil shedder p99 must be 0")
	}
	if shed, _ := s.ShouldShed(PriorityLow); shed {
		t.Fatal("nil shedder must never shed")
	}
}

func TestParsePriority(t *testing.T) {
	cases := map[string]Priority{
		"low": PriorityLow, "high": PriorityHigh, "normal": PriorityNormal,
		"": PriorityNormal, "urgent": PriorityNormal,
	}
	for in, want := range cases {
		if got := ParsePriority(in); got != want {
			t.Errorf("ParsePriority(%q) = %v, want %v", in, got, want)
		}
	}
	if PriorityLow.String() != "low" || PriorityHigh.String() != "high" || PriorityNormal.String() != "normal" {
		t.Fatal("Priority.String mismatch")
	}
}

// reserveDisabled is the disabled path: evaluation code instruments
// allocation sites unconditionally, so when no reservation is attached
// (core used directly; the server always has a broker) the nil-receiver
// calls must not allocate.
func reserveDisabled(tb testing.TB, ctx context.Context) {
	r := FromContext(ctx)
	if err := r.Grow(64); err != nil {
		tb.Fatal(err)
	}
	m := r.NewMeter()
	if err := m.Grow(128); err != nil {
		tb.Fatal(err)
	}
	if err := m.Charge(-64); err != nil {
		tb.Fatal(err)
	}
	m.Close()
	r.Shrink(32)
	r.Release()
}

func BenchmarkReservationDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reserveDisabled(b, ctx)
	}
}

// TestCeilings holds the disabled path at zero allocations, the twin of
// trace's TestTraceDisabledZeroAlloc: accounting costs ~nothing when no
// broker is attached.
func TestCeilings(t *testing.T) {
	ctx := context.Background()
	if got := testing.AllocsPerRun(1000, func() { reserveDisabled(t, ctx) }); got != 0 {
		t.Fatalf("the disabled reservation path makes %.1f allocations, want 0", got)
	}
}

// BenchmarkReservationEnabled sizes the enabled-path cost (one atomic add
// per in-grant Grow) so regressions in the hot charging path show up.
func BenchmarkReservationEnabled(b *testing.B) {
	br := NewBroker(0)
	r, err := br.Reserve(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Release()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Grow(64); err != nil {
			b.Fatal(err)
		}
		r.Shrink(64)
	}
}

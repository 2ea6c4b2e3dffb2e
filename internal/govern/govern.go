// Package govern is the resource governor for ECRPQ evaluation: a global
// byte ledger (Broker) that per-query Reservations draw from, plus the
// admission-side policies that keep a server for a PSPACE-hard problem
// standing under load (per-client token-bucket quotas and adaptive
// overload shedding).
//
// The accounting model is a two-level ledger:
//
//   - The Broker holds the process-wide budget. Its invariant is
//     reserved <= budget at all times (budget 0 means "account but never
//     deny", so peak tracking works even without enforcement).
//   - A Reservation is one query's claim against the broker. It acquires
//     broker bytes in coarse chunks (reserveChunk) so the per-allocation
//     cost in evaluation hot loops is one atomic add, not a broker
//     round-trip. Release returns the whole grant and is idempotent, so
//     "release on all paths" is cheap to guarantee with a single defer.
//   - A Meter is a single-goroutine charging scope over a Reservation:
//     everything charged through the meter is shrunk back when the meter
//     closes. Scratch structures that are reused across calls charge only
//     high-water growth; per-call structures charge through a meter that
//     closes on return.
//
// Everything is nil-safe: a nil *Broker grants everything, a nil
// *Reservation and nil *Meter no-op, and the disabled path allocates
// nothing (enforced by BenchmarkReservationDisabled, gated in make ci).
// Evaluation code receives the reservation through the context
// (NewContext/FromContext) so core function signatures keep their
// maxStates plumbing unchanged.
package govern

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"ecrpq/internal/faultinject"
)

// ErrResourceExhausted is the sentinel wrapped by every denial: the broker
// budget is spent, a reservation could not grow, or a fault was injected
// at the govern.reserve site. Servers map it to 429 RESOURCE_EXHAUSTED.
var ErrResourceExhausted = errors.New("govern: resource budget exhausted")

// reserveChunk is the granularity at which reservations pull bytes from
// the broker. Coarse chunks amortize broker atomics: a hot loop charging
// 56-byte rows touches the broker once per ~4700 rows.
const reserveChunk = 256 << 10

// Broker is the process-wide byte ledger. The zero value is unusable; use
// NewBroker. A nil *Broker grants every request (fully disabled path).
type Broker struct {
	budget   int64 // immutable after NewBroker; 0 = unlimited (account only)
	reserved atomic.Int64
	peak     atomic.Int64
	denials  atomic.Uint64
}

// BrokerStats is a point-in-time snapshot of the ledger.
type BrokerStats struct {
	BudgetBytes   int64  `json:"budget_bytes"`
	ReservedBytes int64  `json:"reserved_bytes"`
	PeakBytes     int64  `json:"peak_bytes"`
	Denials       uint64 `json:"denials"`
}

// NewBroker builds a ledger with the given byte budget. budget <= 0 means
// unlimited: acquisitions always succeed but are still accounted, so
// reserved/peak stats stay meaningful for capacity planning.
func NewBroker(budget int64) *Broker {
	if budget < 0 {
		budget = 0
	}
	return &Broker{budget: budget}
}

// TryAcquire claims n bytes from the budget, reporting whether the claim
// fit. It never blocks. A nil broker always grants. TryAcquire/Release
// also satisfy the plancache Ledger interface, so cached materializations
// and live query reservations share this one ledger.
func (b *Broker) TryAcquire(n int64) bool {
	if b == nil || n <= 0 {
		return true
	}
	for {
		cur := b.reserved.Load()
		next := cur + n
		if b.budget > 0 && next > b.budget {
			b.denials.Add(1)
			return false
		}
		if b.reserved.CompareAndSwap(cur, next) {
			updatePeak(&b.peak, next)
			return true
		}
	}
}

// Release returns n bytes to the budget. Releasing more than was acquired
// is a caller bug; the ledger clamps at zero rather than going negative so
// a miscount cannot turn into an unbounded grant.
func (b *Broker) Release(n int64) {
	if b == nil || n <= 0 {
		return
	}
	if cur := b.reserved.Add(-n); cur < 0 {
		// Clamp: a double-release must not create phantom budget.
		b.reserved.CompareAndSwap(cur, 0)
	}
}

// Reserved returns the bytes currently claimed.
func (b *Broker) Reserved() int64 {
	if b == nil {
		return 0
	}
	return b.reserved.Load()
}

// Stats snapshots the ledger counters.
func (b *Broker) Stats() BrokerStats {
	if b == nil {
		return BrokerStats{}
	}
	return BrokerStats{
		BudgetBytes:   b.budget,
		ReservedBytes: b.reserved.Load(),
		PeakBytes:     b.peak.Load(),
		Denials:       b.denials.Load(),
	}
}

// Reserve opens a reservation with an initial claim of n bytes (the
// admission floor). It fails fast with ErrResourceExhausted when the claim
// does not fit, so an overloaded server rejects before any evaluation work
// starts. A nil broker returns a nil reservation, which is the valid,
// zero-cost disabled handle.
func (b *Broker) Reserve(n int64) (*Reservation, error) {
	if b == nil {
		return nil, nil
	}
	if n < 0 {
		n = 0
	}
	if !b.TryAcquire(n) {
		return nil, fmt.Errorf("%w: %d bytes requested with %d of %d reserved",
			ErrResourceExhausted, n, b.reserved.Load(), b.budget)
	}
	r := &Reservation{b: b}
	r.granted.Store(n)
	return r, nil
}

// Reservation is one query's claim against a Broker. Methods are safe for
// concurrent use and safe on a nil receiver (the disabled path).
type Reservation struct {
	b        *Broker
	granted  atomic.Int64 // bytes held at the broker
	used     atomic.Int64 // bytes charged by evaluation
	peak     atomic.Int64 // high-water of used
	released atomic.Bool
}

// Grow charges n more bytes, pulling additional chunks from the broker
// when the charge exceeds the current grant. On denial the charge is
// rolled back and the error wraps ErrResourceExhausted; the reservation
// stays valid (already-granted bytes remain held until Release).
func (r *Reservation) Grow(n int64) error {
	if r == nil || n <= 0 {
		return nil
	}
	if r.released.Load() {
		return fmt.Errorf("%w: reservation already released", ErrResourceExhausted)
	}
	used := r.used.Add(n)
	for {
		g := r.granted.Load()
		if used <= g {
			break
		}
		// The govern.reserve chaos site lives on the grow-more path, not
		// in Broker.TryAcquire: injected faults then model exactly a
		// mid-evaluation denial, without perturbing admission or the
		// plan-cache ledger.
		if err := faultinject.Point("govern.reserve"); err != nil {
			r.used.Add(-n)
			return fmt.Errorf("%w (%w)", ErrResourceExhausted, err)
		}
		want := used - g
		want = (want + reserveChunk - 1) / reserveChunk * reserveChunk
		if !r.b.TryAcquire(want) {
			r.used.Add(-n)
			return fmt.Errorf("%w: reservation needs %d more bytes (%d charged, %d of %d broker bytes reserved)",
				ErrResourceExhausted, want, used, r.b.reserved.Load(), r.b.budget)
		}
		if r.granted.CompareAndSwap(g, g+want) {
			break
		}
		// Lost the race to another goroutine growing the same
		// reservation; give the chunk back and re-check.
		r.b.Release(want)
	}
	updatePeak(&r.peak, used)
	return nil
}

// Shrink uncharges n bytes but keeps the broker grant (hysteresis: a
// query that shrinks and regrows does not hammer the broker). The grant
// is returned wholesale by Release.
func (r *Reservation) Shrink(n int64) {
	if r == nil || n <= 0 {
		return
	}
	if cur := r.used.Add(-n); cur < 0 {
		r.used.CompareAndSwap(cur, 0)
	}
}

// Release returns the entire grant to the broker. Idempotent: the pool
// worker, the drop-at-dequeue path, and the admission-failure path can
// each hold a release without coordination.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	if r.released.Swap(true) {
		return
	}
	r.b.Release(r.granted.Swap(0))
}

// Used returns the bytes currently charged.
func (r *Reservation) Used() int64 {
	if r == nil {
		return 0
	}
	return r.used.Load()
}

// Peak returns the high-water mark of charged bytes.
func (r *Reservation) Peak() int64 {
	if r == nil {
		return 0
	}
	return r.peak.Load()
}

// NewMeter opens a charging scope over the reservation. A nil reservation
// yields a nil meter, whose methods no-op without allocating.
func (r *Reservation) NewMeter() *Meter {
	if r == nil {
		return nil
	}
	return &Meter{r: r}
}

// Meter is a single-goroutine charging scope: Close shrinks everything
// the meter charged, making "release on all paths" a one-line defer for
// per-call data structures (product-search state tables, CQ join
// intermediates). Not safe for concurrent use — concurrent workers each
// take their own meter over the shared reservation.
type Meter struct {
	r       *Reservation
	charged int64
}

// Grow charges n bytes against the underlying reservation.
func (m *Meter) Grow(n int64) error {
	if m == nil || n <= 0 {
		return nil
	}
	if err := m.r.Grow(n); err != nil {
		return err
	}
	m.charged += n
	return nil
}

// Charge applies a signed delta: positive charges, negative releases
// (clamped to what this meter holds). It matches the cq.ChargeFunc shape
// so join intermediates can charge replacement deltas directly.
func (m *Meter) Charge(delta int64) error {
	if m == nil || delta == 0 {
		return nil
	}
	if delta > 0 {
		return m.Grow(delta)
	}
	d := -delta
	if d > m.charged {
		d = m.charged
	}
	m.r.Shrink(d)
	m.charged -= d
	return nil
}

// Charged returns the bytes this meter currently holds.
func (m *Meter) Charged() int64 {
	if m == nil {
		return 0
	}
	return m.charged
}

// Close releases everything the meter charged. Idempotent.
func (m *Meter) Close() {
	if m == nil || m.charged == 0 {
		return
	}
	m.r.Shrink(m.charged)
	m.charged = 0
}

// updatePeak lifts p to at least v.
func updatePeak(p *atomic.Int64, v int64) {
	for {
		cur := p.Load()
		if v <= cur || p.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ctxKey keys the reservation in a context.
type ctxKey struct{}

// NewContext attaches a reservation to the context so evaluation code can
// charge without signature changes. Attaching nil returns ctx unchanged.
func NewContext(ctx context.Context, r *Reservation) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the reservation attached to ctx, or nil (the
// disabled handle) when none is attached.
func FromContext(ctx context.Context) *Reservation {
	r, _ := ctx.Value(ctxKey{}).(*Reservation)
	return r
}

// MeterFrom opens a meter over the context's reservation; nil (free) when
// no reservation is attached.
func MeterFrom(ctx context.Context) *Meter {
	return FromContext(ctx).NewMeter()
}

package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"ecrpq/internal/faultinject"
	"ecrpq/internal/server/metrics"
)

// Loops runs a daemon's background work: every periodic body (readiness
// probes, catch-up pulls, anti-entropy rounds, scrub passes) and every
// long-lived goroutine beside them shares one cancellation context and one
// WaitGroup, so shutdown is one cancel and one wait, and every loop is
// visible the same way — a pass counter and a pass-duration histogram per
// loop name in reg, and a fault-injection site "loop.<name>" that makes the
// loop skip a pass.
type Loops struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	reg    *metrics.Registry
}

// NewLoops returns a runner recording into reg.
func NewLoops(reg *metrics.Registry) *Loops {
	ctx, cancel := context.WithCancel(context.Background())
	return &Loops{ctx: ctx, cancel: cancel, reg: reg}
}

// Run starts body on a goroutine Stop waits for; body must return once its
// context is cancelled.
func (l *Loops) Run(body func(ctx context.Context)) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		body(l.ctx)
	}()
}

// Every runs pass about once per (positive) interval until Stop. Each wait is
// independently jittered (see Jitter), the first included, so loops started
// together do not stay in phase. Several loops may share a name (one prober
// per peer): they share its counter and histogram.
func (l *Loops) Every(name string, interval time.Duration, pass func(ctx context.Context)) {
	passes := l.reg.Counter("loop_" + name + "_passes_total")
	seconds := l.reg.Histogram("loop_"+name+"_seconds", nil)
	l.Run(func(ctx context.Context) {
		for Sleep(ctx, Jitter(interval)) {
			if faultinject.Point("loop."+name) != nil {
				continue
			}
			start := time.Now()
			pass(ctx)
			seconds.Observe(time.Since(start))
			passes.Inc()
		}
	})
}

// Stop cancels every body and waits for all of them to return. Idempotent.
func (l *Loops) Stop() {
	l.cancel()
	l.wg.Wait()
}

// Sleep waits for d, or not at all when d <= 0, and reports whether ctx is
// still live: false means the caller is being stopped and should return.
func Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Jitter spreads a loop interval uniformly across [d/2, 3d/2). Periodic
// cluster work — readiness probes, catch-up pulls, scrub and
// anti-entropy sweeps — must not run in lockstep: nodes restarted by the
// same supervisor share a phase, and synchronized loops turn every
// restart into a thundering herd against whichever peer comes up last.
// Non-positive d is returned unchanged.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

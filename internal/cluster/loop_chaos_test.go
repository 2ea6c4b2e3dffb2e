//go:build faultinject

package cluster

import (
	"context"
	"testing"
	"time"

	"ecrpq/internal/faultinject"
	"ecrpq/internal/server/metrics"
)

// TestChaosLoopFaultSkipsPasses: every loop has a fault site named after
// it; while it fires the loop keeps waking but runs and records nothing, and
// it resumes when the site is disabled.
func TestChaosLoopFaultSkipsPasses(t *testing.T) {
	reg := metrics.NewRegistry()
	l := NewLoops(reg)
	defer l.Stop()
	passes := reg.Counter("loop_unit_passes_total")

	faultinject.EnableSite("loop.unit", faultinject.ModeError, 1.0)
	defer faultinject.Disable()
	l.Every("unit", time.Millisecond, func(context.Context) {})
	waitFor(t, "the armed site to be checked", func() bool { return faultinject.Stats()["loop.unit"].Injected >= 3 })
	if got := passes.Value(); got != 0 {
		t.Fatalf("%d passes ran with loop.unit armed", got)
	}
	faultinject.Disable()
	waitFor(t, "passes to resume", func() bool { return passes.Value() >= 1 })
}

package cluster

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ecrpq/internal/server/metrics"
)

// TestLoopsRecordPasses: a loop's passes show up in the registry under its
// name — the counter and the duration histogram an operator reads to see
// that background work is running and how long it takes.
func TestLoopsRecordPasses(t *testing.T) {
	reg := metrics.NewRegistry()
	l := NewLoops(reg)
	defer l.Stop()
	var ran atomic.Int64
	l.Every("unit", time.Millisecond, func(context.Context) { ran.Add(1) })
	waitFor(t, "two recorded passes", func() bool {
		return reg.Counter("loop_unit_passes_total").Value() >= 2
	})
	if got := reg.Histogram("loop_unit_seconds", nil).Count(); got < 2 {
		t.Errorf("duration histogram holds %d observations after two counted passes", got)
	}
	if ran.Load() < 2 {
		t.Errorf("counter moved but the body ran %d times", ran.Load())
	}
}

// TestLoopsStopMidWaitAndMidPass: Stop returns promptly whether a loop is
// parked in its jittered wait (an hour here) or inside a pass that honours
// its context, and every goroutine the runner started is gone afterwards.
func TestLoopsStopMidWaitAndMidPass(t *testing.T) {
	baseline := runtime.NumGoroutine()
	l := NewLoops(metrics.NewRegistry())
	l.Every("waiting", time.Hour, func(context.Context) { t.Error("an hour-long wait elapsed") })
	inPass := make(chan struct{})
	l.Every("working", time.Millisecond, func(ctx context.Context) {
		select {
		case inPass <- struct{}{}:
		default:
		}
		<-ctx.Done()
	})
	l.Run(func(ctx context.Context) { <-ctx.Done() })
	<-inPass

	stopped := make(chan struct{})
	go func() {
		l.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return with one loop mid-wait and one mid-pass")
	}
	waitFor(t, "runner goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestSleep: a non-positive wait does not block, and a cancelled context
// wins over any wait.
func TestSleep(t *testing.T) {
	if !Sleep(context.Background(), 0) || !Sleep(context.Background(), time.Millisecond) {
		t.Error("Sleep on a live context reported cancellation")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if Sleep(ctx, 0) || Sleep(ctx, time.Hour) {
		t.Error("Sleep on a cancelled context reported it live")
	}
}

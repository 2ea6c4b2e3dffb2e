package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ecrpq/internal/invariant"
)

// These tests pin down the worker-pool contract of runWorkers: a panic or
// error in any worker must surface to the caller (not vanish or kill the
// process), and the stop channel must let surviving workers bail out early.
// Run them with -race: the shared counters below catch unsynchronized
// result handoff.

func TestRunWorkersAllSucceed(t *testing.T) {
	const workers = 4
	var done [workers]int64
	err := runWorkers(workers, func(w int, stop <-chan struct{}) error {
		done[w]++
		return nil
	})
	if err != nil {
		t.Fatalf("runWorkers = %v, want nil", err)
	}
	for w, n := range done {
		if n != 1 {
			t.Errorf("worker %d ran %d times, want 1", w, n)
		}
	}
}

func TestRunWorkersPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := runWorkers(4, func(w int, stop <-chan struct{}) error {
		if w == 2 {
			return sentinel
		}
		<-stop // must be closed by the failure, or this test deadlocks
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("runWorkers = %v, want %v", err, sentinel)
	}
}

func TestRunWorkersRecoversPanic(t *testing.T) {
	err := runWorkers(3, func(w int, stop <-chan struct{}) error {
		if w == 0 {
			panic("table corrupted")
		}
		<-stop
		return nil
	})
	if err == nil {
		t.Fatal("panicking worker produced no error")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "table corrupted") {
		t.Errorf("error %q should mention the panic and its payload", err)
	}
}

func TestRunWorkersRecoversInvariantViolation(t *testing.T) {
	err := runWorkers(2, func(w int, stop <-chan struct{}) error {
		if w == 1 {
			invariant.Assert(false, "automata: state outside the DFA")
		}
		<-stop
		return nil
	})
	var v *invariant.Violation
	if !errors.As(err, &v) {
		t.Fatalf("runWorkers = %v, want a wrapped *invariant.Violation", err)
	}
	if !strings.Contains(v.Msg, "state outside the DFA") {
		t.Errorf("violation message %q lost the assertion text", v.Msg)
	}
}

func TestRunWorkersStopHaltsSiblings(t *testing.T) {
	const workers = 4
	var after int64
	var ready sync.WaitGroup
	ready.Add(workers - 1)
	gate := make(chan struct{})
	err := runWorkers(workers, func(w int, stop <-chan struct{}) error {
		if w == 0 {
			ready.Wait() // all siblings are parked before the failure
			close(gate)
			return fmt.Errorf("early failure")
		}
		ready.Done()
		<-gate
		// After the failing worker returns, stop must fire promptly so
		// siblings skip their remaining shards.
		<-stop
		atomic.AddInt64(&after, 1)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "early failure") {
		t.Fatalf("runWorkers = %v, want the early failure", err)
	}
	if got := atomic.LoadInt64(&after); got != workers-1 {
		t.Errorf("%d siblings observed stop, want %d", got, workers-1)
	}
}

func TestRunWorkersFirstErrorWins(t *testing.T) {
	// Every worker fails; exactly one error must come back and the pool
	// must not deadlock on its buffered channel.
	err := runWorkers(8, func(w int, stop <-chan struct{}) error {
		return fmt.Errorf("worker %d failed", w)
	})
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("runWorkers = %v, want a worker failure", err)
	}
}

// TestSweepSources is the one sweep-size rule, which the materializing
// sweep, a streamed Open's free source positions and the Generic candidate
// enumeration all size themselves by: n^t, refused past 2³² — exactly 2³²
// is still swept — with the empty product 1 and nothing to sweep on the
// empty database.
func TestSweepSources(t *testing.T) {
	for _, tc := range []struct {
		n, t, want int
		refused    bool
	}{
		{n: 0, t: 0, want: 1},
		{n: 0, t: 2, want: 0},
		{n: 1, t: 0, want: 1},
		{n: 1, t: 64, want: 1},
		{n: 5, t: 0, want: 1},
		{n: 5, t: 3, want: 125},
		{n: 65536, t: 2, want: MaxSweepSources},
		{n: 65537, t: 2, refused: true},
		{n: 1626, t: 3, refused: true},
		{n: MaxSweepSources, t: 1, want: MaxSweepSources},
		{n: MaxSweepSources + 1, t: 1, refused: true},
	} {
		got, err := sweepSources(tc.n, tc.t)
		if (err != nil) != tc.refused || got != tc.want {
			t.Errorf("sweepSources(%d, %d) = %d, %v; want %d, refused %v", tc.n, tc.t, got, err, tc.want, tc.refused)
		}
	}
}

//go:build faultinject

package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/faultinject"
	"ecrpq/internal/govern"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// TestChaosWideKernelReleases arms the two fault points a product search
// crosses — core.budget in its poll, govern.reserve where its charge outgrows
// the grant — on wide-regime instances of both strategies: the fault comes
// back as the typed error and every byte the kernels charged (their row sets
// included) is released.
func TestChaosWideKernelReleases(t *testing.T) {
	a := alphabet.Lower(2)
	sweepDB := randomDB(rand.New(rand.NewSource(12)), a, 12, 36)
	sweepQ := query.NewBuilder(a).Reach("x", "p1", "y").Reach("x", "p2", "y").
		Rel(synchro.HammingAtMost(a, 1), "p1", "p2").MustBuild()
	fanDB, fanQ := wideGenericInstance(t)
	// The plans are compiled outside the reservation: what a request keeps
	// charged for its plan is not the kernels'.
	fan, err := Prepare(fanQ, Options{Strategy: Generic})
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := Prepare(sweepQ, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"core.budget", "govern.reserve"} {
		for _, tc := range []struct {
			name string
			run  func(ctx context.Context) error
		}{
			{"generic, 17 tracks", func(ctx context.Context) error {
				_, err := fan.EvaluateContext(ctx, fanDB, nil)
				return err
			}},
			{"reduction, forced wide", func(ctx context.Context) (err error) {
				inWideRegime(func() {
					_, err = sweep.Materialize(ctx, sweepDB)
				})
				return err
			}},
		} {
			broker := govern.NewBroker(1 << 30)
			res, err := broker.Reserve(0)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.EnableSite(site, faultinject.ModeError, 1.0)
			err = tc.run(govern.NewContext(context.Background(), res))
			faultinject.Disable()
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("%s, %s: err = %v, want the injected fault", site, tc.name, err)
			}
			if site == "govern.reserve" && !errors.Is(err, govern.ErrResourceExhausted) {
				t.Fatalf("%s, %s: err = %v, want ErrResourceExhausted", site, tc.name, err)
			}
			if used := res.Used(); used != 0 {
				t.Fatalf("%s, %s: %d bytes still charged after the fault", site, tc.name, used)
			}
			checkScratchesReturned(t, site+", "+tc.name)
			res.Release()
			if got := broker.Reserved(); got != 0 {
				t.Fatalf("%s, %s: broker holds %d bytes after release", site, tc.name, got)
			}
			if err := tc.run(context.Background()); err != nil {
				t.Fatalf("%s, %s: with injection off: %v", site, tc.name, err)
			}
		}
	}
}

// TestChaosAnswersMatrix runs the answers matrix with every fault site armed
// under a reservation: whichever way a cell's answer set is asked for, the
// call returns the injected fault as a typed error or the whole reference
// set — never a wrong or a partial one — and leaves nothing charged.
func TestChaosAnswersMatrix(t *testing.T) {
	broker := govern.NewBroker(1 << 30)
	faults, clean := 0, 0
	forEachAnswersCell(t, func(c *answersCell) {
		for how, run := range c.ways() {
			for seed := uint64(1); seed <= 3; seed++ {
				res, err := broker.Reserve(0)
				if err != nil {
					t.Fatal(err)
				}
				faultinject.Enable(seed, 0.3)
				got, err := run(govern.NewContext(context.Background(), res))
				faultinject.Disable()
				switch {
				case errors.Is(err, faultinject.ErrInjected):
					faults++
				case err != nil || !slices.EqualFunc(got, c.ref, slices.Equal[[]int]):
					t.Fatalf("%s: %s under fault seed %d = %v, %v; want %v or the injected fault", c.at, how, seed, got, err, c.ref)
				default:
					clean++
				}
				// A materialisation built inside the call stays charged to the
				// request that built it, as one handed to the cache would.
				if used := res.Used(); used != 0 && !(c.mat != nil && how == "Answers with none") {
					t.Fatalf("%s: %s under fault seed %d: %d bytes still charged", c.at, how, seed, used)
				}
				res.Release()
			}
		}
	})
	if faults < 100 || clean < 100 {
		t.Errorf("%d faulted and %d clean calls: the matrix no longer sees both outcomes", faults, clean)
	}
	if got := broker.Reserved(); got != 0 {
		t.Errorf("broker holds %d bytes after every reservation was released", got)
	}
}

//go:build faultinject

package core

import (
	"context"
	"errors"
	"math/rand"
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
	sweep, err := Prepare(sweepQ, Options{Strategy: Reduction, Parallelism: 2})
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

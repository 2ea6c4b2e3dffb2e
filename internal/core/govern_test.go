package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/govern"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

func TestEvaluateWithinBudgetSucceeds(t *testing.T) {
	a := alphabet.Lower(2)
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng, a, 8, 24)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		MustBuild()

	broker := govern.NewBroker(64 << 20)
	res, err := broker.Reserve(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	ctx := govern.NewContext(context.Background(), res)
	for _, opts := range strategies() {
		r, err := EvaluateContext(ctx, db, q, opts)
		if err != nil {
			t.Fatalf("strategy %v under ample budget: %v", opts.Strategy, err)
		}
		_ = r
	}
	if res.Peak() == 0 {
		t.Fatal("evaluation charged no bytes: accounting is not wired")
	}
	res.Release()
	if got := broker.Reserved(); got != 0 {
		t.Fatalf("broker reserved = %d after release, want 0", got)
	}
}

func TestEvaluateExhaustsTinyBudget(t *testing.T) {
	a := alphabet.Lower(2)
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng, a, 10, 40)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		MustBuild()

	denied := func() {
		for _, opts := range []Options{{Strategy: Reduction}, {Strategy: Reduction, Parallelism: 4}, {Strategy: Generic}} {
			broker := govern.NewBroker(2 << 10) // far below what the sweep needs
			res, err := broker.Reserve(0)
			if err != nil {
				t.Fatal(err)
			}
			ctx := govern.NewContext(context.Background(), res)
			_, err = EvaluateContext(ctx, db, q, opts)
			if !errors.Is(err, govern.ErrResourceExhausted) {
				t.Fatalf("strategy %v parallelism %d: err = %v, want ErrResourceExhausted",
					opts.Strategy, opts.Parallelism, err)
			}
			if used := res.Used(); used != 0 {
				t.Fatalf("strategy %v parallelism %d: %d bytes still charged after the denial",
					opts.Strategy, opts.Parallelism, used)
			}
			res.Release()
			if got := broker.Reserved(); got != 0 {
				t.Fatalf("strategy %v: broker reserved = %d after release-on-error, want 0",
					opts.Strategy, got)
			}
		}
	}
	denied()
	inWideRegime(denied) // the kernels' row sets are charged and released with the rest
}

// TestEvaluateWithoutReservationUnchanged pins the disabled path: evaluation
// with no reservation in the context must behave exactly as before.
func TestEvaluateWithoutReservationUnchanged(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		MustBuild()
	if !evalAll(t, db, q) {
		t.Fatal("equal-length query should hold on the line database")
	}
}

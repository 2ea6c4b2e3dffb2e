package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/plancache"
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

// TestGenericSearchChargesWhatItMeets: a product kernel charges the tables
// it holds, and those are sized by the states its searches meet, not by the
// key space the states are drawn from. What an operator sees: the V = 40
// prefix 3-chain of BenchmarkGenericCheck packs into 2^28 keys and meets a
// few thousand states; when a kernel began by zeroing a bitset over the key
// space its evaluation charged 4.4 MB up front and a 1 MiB reservation
// refused it, and now it fits, with a witness that verifies and nothing
// charged afterwards. And an empty kernel holds at most two 8 KiB bitsets,
// whatever the database, the tracks and the key regime.
func TestGenericSearchChargesWhatItMeets(t *testing.T) {
	a := alphabet.Lower(2)
	db, q := genericCheckDB(a, 40), prefixChain3(a)
	for _, regime := range []func(func()){func(f func()) { f() }, inWideRegime} {
		regime(func() {
			broker := govern.NewBroker(1 << 20)
			res, err := broker.Reserve(0)
			if err != nil {
				t.Fatal(err)
			}
			out, err := EvaluateContext(govern.NewContext(context.Background(), res), db, q, Options{Strategy: Generic})
			if err != nil || !out.Sat {
				t.Fatalf("the prefix 3-chain under a 1 MiB reservation: result %v, err %v (peak charge %d)", out, err, res.Peak())
			}
			if err := VerifyWitness(db, q, out); err != nil {
				t.Fatal(err)
			}
			if res.Peak() == 0 || res.Used() != 0 {
				t.Fatalf("peak charge %d, %d bytes still charged after the call", res.Peak(), res.Used())
			}
			res.Release()
			if got := broker.Reserved(); got != 0 {
				t.Fatalf("broker holds %d bytes after release", got)
			}
		})
	}

	for _, v := range []int{16, 40, 100, 100000} {
		big := graphdb.New(a)
		for i := 0; i < v; i++ {
			big.MustAddVertex("")
		}
		for tracks := 1; tracks <= 3; tracks++ {
			comps, err := decomposeViews(eqFan(a, tracks).Lang("p1", "a(a|b)*b").MustBuild())
			if err != nil || len(comps) != 1 {
				t.Fatalf("decompose: %v, %d components", err, len(comps))
			}
			for name, regime := range map[string]func(func()){"narrow": func(f func()) { f() }, "wide": inWideRegime} {
				regime(func() {
					fp := newFastProduct(big, &comps[0])
					at := fmt.Sprintf("V=%d, %d tracks, %s (%d-bit states, %d-bit destinations)", v, tracks, name, fp.bits, fp.destBits)
					if fp.wide != (name == "wide") {
						t.Fatalf("%s: wide=%v", at, fp.wide)
					}
					held := fp.visited.bytes() + fp.accepted.bytes() + fp.stateRows.bytes() + fp.destRows.bytes()
					if held > 16<<10 {
						t.Fatalf("%s: an empty kernel holds %d bytes", at, held)
					}
					res, err := govern.NewBroker(1 << 30).Reserve(0)
					if err != nil {
						t.Fatal(err)
					}
					defer res.Release()
					if err := fp.begin(govern.NewContext(context.Background(), res), make([]int, tracks), 0); err != nil {
						t.Fatal(err)
					}
					if res.Used() == 0 || res.Used() > 17<<10 {
						t.Fatalf("%s: a kernel that has met its start states charges %d bytes", at, res.Used())
					}
					fp.releaseMem()
				})
			}
		}
	}
}

// TestMaterializationChargesItsRows: what a Materialize leaves charged to its
// reservation, what the materialisation reports as MemBytes and what a cache
// Put of it takes from the broker's ledger are the same bytes — the size of
// the []int32 arrays its relations hold, each component at its own arity (a
// 1-track row is 8 bytes beside a 2-track row's 16, not charged at the wider)
// — in both key regimes and at every parallelism.
func TestMaterializationChargesItsRows(t *testing.T) {
	a := alphabet.Lower(2)
	db := randomDB(rand.New(rand.NewSource(27)), a, 10, 30)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		Reach("y", "p3", "z").
		Lang("p3", "a(a|b)*").
		MustBuild()
	check := func() {
		for _, par := range []int{0, 2} {
			p, err := Prepare(q, Options{Strategy: Reduction, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			broker := govern.NewBroker(1 << 30)
			res, err := broker.Reserve(0)
			if err != nil {
				t.Fatal(err)
			}
			mat, err := p.Materialize(govern.NewContext(context.Background(), res), db)
			if err != nil {
				t.Fatal(err)
			}
			rows, arities := int64(0), map[int]bool{}
			for _, name := range mat.st.RelationNames() {
				r := mat.st.Relation(name)
				if r.Len() == 0 {
					t.Fatalf("par=%d: %s is empty; the instance no longer exercises both arities", par, name)
				}
				rows += int64(4 * r.Arity * r.Len())
				arities[r.Arity] = true
			}
			if !arities[2] || !arities[4] {
				t.Fatalf("par=%d: relation arities %v, want a 1-track and a 2-track component", par, arities)
			}
			if int64(mat.st.RowBytes()) != rows || res.Used() != rows || int64(mat.MemBytes()) != 512+rows {
				t.Fatalf("par=%d: the relations hold %d bytes of rows (RowBytes %d): the reservation keeps %d, MemBytes is %d, want %d and %d",
					par, rows, mat.st.RowBytes(), res.Used(), mat.MemBytes(), rows, 512+rows)
			}
			res.Release()
			cache := plancache.New(1 << 30)
			cache.SetLedger(broker)
			before := broker.Reserved()
			cache.Put(plancache.Key{QueryHash: "q", Strategy: "reduction", DBGen: 1}, mat, mat.MemBytes())
			if got := broker.Reserved() - before; got != int64(mat.MemBytes()) || cache.Len() != 1 {
				t.Fatalf("par=%d: caching the materialisation moved the ledger by %d bytes (%d entries), want MemBytes = %d", par, got, cache.Len(), mat.MemBytes())
			}
			cache.Delete(plancache.Key{QueryHash: "q", Strategy: "reduction", DBGen: 1})
			if got := broker.Reserved(); got != 0 {
				t.Fatalf("par=%d: broker holds %d bytes after the release and the delete", par, got)
			}
		}
	}
	check()
	inWideRegime(check)
}

package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
)

// referenceWitness is the witness as it was computed before it was read off
// the deciding search: a fresh kernel and a traversal of its own from srcs
// that keeps, per queue slot, the parent slot and the joint letter of the
// emit that queued it, as far as the first accepting state over dsts; the
// paths are the stored letters along the chain of parents.
func referenceWitness(t testing.TB, db *graphdb.DB, c *component, srcs, dsts []int) ([]graphdb.Path, bool) {
	t.Helper()
	ctx := context.Background()
	fp := newFastProduct(db, c)
	var letters []alphabet.Symbol
	fp.emit = func() {
		n := len(fp.queue.s)
		fp.push()
		if len(fp.queue.s) > n {
			row := make([]alphabet.Symbol, fp.t) // left unset for a start state, which no letter queues
			copy(row, fp.joint)
			letters = append(letters, row...)
		}
	}
	fp.record = true
	if err := fp.begin(ctx, srcs, 0); err != nil {
		t.Fatal(err)
	}
	found, err := fp.advance(ctx, fp.destKey(dsts))
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		return nil, false
	}
	var chain []int32
	for i := int32(fp.qi); fp.parents.s[i] >= 0; i = fp.parents.s[i] {
		chain = append(chain, i)
	}
	paths := make([]graphdb.Path, fp.t)
	for i := range paths {
		paths[i].Start = srcs[i]
	}
	for k := len(chain) - 1; k >= 0; k-- {
		slot := int(chain[k])
		fp.unpack(fp.queue.s[slot], fp.verts)
		for i, s := range letters[slot*fp.t : (slot+1)*fp.t] {
			if s != alphabet.Pad {
				paths[i].Edges = append(paths[i].Edges, graphdb.Edge{Label: s, To: fp.verts[i]})
			}
		}
	}
	return paths, true
}

func samePaths(a, b []graphdb.Path) bool {
	return slices.EqualFunc(a, b, func(p, q graphdb.Path) bool {
		return p.Start == q.Start && slices.Equal(p.Edges, q.Edges)
	})
}

// TestWitnessFromSearch: the witness read off the search that decided — the
// live traversal resumed, the parent links walked, each step's letter
// re-derived from one more expansion of the step's parent — is, path for
// path and edge for edge, the one a fresh kernel's traversal with stored
// letters gives, whatever the kernel did before it was asked: nothing;
// reach calls under the same sources, some of them answered from the
// accepted set without advancing; Run and componentReachSet, which reorder
// the destination list in place; a traversal that failed on its state
// budget or on cancellation; a reach under other sources. A witness asked
// of a recorded live traversal begins no traversal. Every instance of the
// generic differential suite, in both key regimes; and the suite's results
// — paths, nodes and the counts of the search's work — are pinned to what
// the generic strategy returned over the merged automaton when it was still
// the EagerMerge option beside the lazy multi-relation product (a9438df):
// the same automaton searched in the same order.
func TestWitnessFromSearch(t *testing.T) {
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	kernelOf := func(in genericInstance, c *component) *fastProduct {
		fp := newFastProduct(in.db, c)
		fp.paths = true
		return fp
	}
	resumed := 0
	instance := func(in genericInstance, rng *rand.Rand) {
		n := in.db.NumVertices()
		for ci, c := range mergedComponents(t, in.q) {
			c := &c
			tr := len(c.tracks)
			srcs, other := make([]int, tr), make([]int, tr)
			for k := range srcs {
				srcs[k], other[k] = rng.Intn(n), rng.Intn(n)
			}
			flat, err := componentReachSet(ctx, newFastProduct(in.db, c), srcs, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Up to three reachable destination tuples, in an order that is
			// not the traversal's, and one drawn at random, reachable or not.
			var dests [][]int
			for _, i := range rng.Perm(len(flat) / tr) {
				if len(dests) < 3 {
					dests = append(dests, flat[i*tr:(i+1)*tr])
				}
			}
			random := make([]int, tr)
			for k := range random {
				random[k] = rng.Intn(n)
			}
			dests = append(dests, random)
			for di, dsts := range dests {
				at := fmt.Sprintf("%s component %d %v→%v", in.name, ci, srcs, dsts)
				want, ok := referenceWitness(t, in.db, c, srcs, dsts)
				if reachable := di < len(dests)-1; reachable && !ok {
					t.Fatalf("%s: in the reach set, but the reference finds no witness", at)
				}
				for k, p := range want {
					if !p.Valid(in.db) || p.Start != srcs[k] || p.End() != dsts[k] {
						t.Fatalf("%s: reference path %d is %s", at, k, p.Format(in.db))
					}
				}
				check := func(after string, fp *fastProduct, traversals int) {
					t.Helper()
					got, found, err := fp.witness(ctx, srcs, dsts, 0)
					if err != nil || found != ok || !samePaths(got, want) {
						t.Fatalf("%s after %s: witness %v (found %v, err %v), want %v (found %v)", at, after, got, found, err, want, ok)
					}
					if fp.traversals != traversals {
						t.Fatalf("%s after %s: %d traversals begun, want %d", at, after, fp.traversals, traversals)
					}
				}
				check("nothing", kernelOf(in, c), 1)

				fp := kernelOf(in, c)
				for _, d := range append(dests[:len(dests):len(dests)], dests[0]) {
					if _, err := fp.reach(ctx, srcs, d, 0); err != nil {
						t.Fatal(err)
					}
				}
				check("reach calls under the same sources", fp, 1)
				check("a witness", fp, 1)
				resumed++

				fp = kernelOf(in, c)
				if got, err := componentReachSet(ctx, fp, srcs, 0, nil); err != nil || !slices.Equal(got, flat) {
					t.Fatalf("%s: reach set %v (err %v), want %v", at, got, err, flat)
				}
				check("Run and componentReachSet", fp, 2)
				if found, err := fp.reach(ctx, srcs, dsts, 0); err != nil || found != ok {
					t.Fatalf("%s: reach after a witness says %v (err %v), want %v", at, found, err, ok)
				}
				check("Run, a witness and a reach", fp, 2)

				fp = kernelOf(in, c)
				_, budgetErr := fp.reach(ctx, srcs, dsts, 1)
				check(fmt.Sprintf("a traversal capped at one state (err %v)", budgetErr), fp, 1+btoi(budgetErr != nil))
				// A language-empty merge has no start state: its traversal
				// meets nothing, so it polls nothing and fails nothing.
				empty := len(c.nfa.Starts) == 0
				fp = kernelOf(in, c)
				if _, err := fp.reach(cancelled, srcs, dsts, 0); (err == nil) != empty {
					t.Fatalf("%s: reach under a cancelled context: err %v", at, err)
				}
				check("a cancelled traversal", fp, 2-btoi(empty))

				fp = kernelOf(in, c)
				if _, err := fp.reach(ctx, other, dsts, 0); err != nil {
					t.Fatal(err)
				}
				check("a reach under other sources", fp, 1+btoi(!slices.Equal(srcs, other)))
			}
		}
	}
	for _, regime := range []struct {
		name string
		in   func(func())
	}{{"narrow", func(f func()) { f() }}, {"wide", inWideRegime}} {
		rng := rand.New(rand.NewSource(25))
		for _, in := range genericInstances(t, rng) {
			regime.in(func() { instance(in, rng) })
		}
	}
	if resumed < 1000 {
		t.Fatalf("only %d witnesses asked of a live recorded traversal", resumed)
	}

	// The suite end to end, against the parent commit's results.
	var checks, assignments, traversals, states, sats int
	digest := fnv.New64a()
	for _, in := range genericInstances(t, rand.New(rand.NewSource(20220614))) {
		res, err := EvaluateContext(ctx, in.db, in.q, Options{Strategy: Generic})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		checks += res.Stats.ProductChecks
		assignments += res.Stats.NodeAssignments
		traversals += res.Stats.Traversals
		states += res.Stats.ProductStates
		fmt.Fprintf(digest, "%s %v", in.name, res.Sat)
		if !res.Sat {
			continue
		}
		sats++
		for _, v := range sortedKeys(res.Nodes) {
			fmt.Fprintf(digest, " %s=%d", v, res.Nodes[v])
		}
		for _, v := range sortedKeys(res.Paths) {
			fmt.Fprintf(digest, " %s=%d%v", v, res.Paths[v].Start, res.Paths[v].Edges)
		}
	}
	got := fmt.Sprintf("%d sat, %d checks, %d assignments, %d traversals, %d states, digest %016x",
		sats, checks, assignments, traversals, states, digest.Sum64())
	const merged = "399 sat, 17828 checks, 21777 assignments, 1933 traversals, 17221 states, digest 02baf91f01b299b7"
	if got != merged {
		t.Fatalf("the differential suite's results moved:\n got  %s\n want %s (EagerMerge at a9438df)", got, merged)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

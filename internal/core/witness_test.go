package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// referenceWitness is the witness by a breadth-first search of its own,
// which shares no code with the kernels: a product state (Lemma 4.2) is an
// automaton state, a vertex per track and the set of finished tracks,
// known by a varint encoding of the three. Successors come in the kernels' order — the
// merged automaton's transitions in table order, then per track, track 0
// outermost, the out-edges of the letter's label in the order they were
// added — and every queue slot stores its parent slot and the joint letter
// that queued it. The search stops at the first accepting state over dsts it
// queues; the paths are the stored letters along the chain of parents, and
// parent is that state's parent slot (-1 for a start state).
func referenceWitness(db *graphdb.DB, c *component, srcs, dsts []int) (paths []graphdb.Path, parent int, ok bool) {
	type node struct {
		q      int
		verts  []int
		done   uint64
		parent int
		letter alphabet.Tuple
	}
	var queue []node
	seen := make(map[string]bool)
	goal := -1
	visit := func(n node) {
		key := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(n.q)), n.done)
		for _, v := range n.verts {
			key = binary.AppendUvarint(key, uint64(v))
		}
		if goal >= 0 || seen[string(key)] {
			return
		}
		seen[string(key)] = true
		if queue = append(queue, n); c.nfa.Accept[n.q] && slices.Equal(n.verts, dsts) {
			goal = len(queue) - 1
		}
	}
	for _, q := range c.nfa.Starts {
		visit(node{q: q, verts: slices.Clone(srcs), parent: -1})
	}
	for i := 0; i < len(queue) && goal < 0; i++ {
		from := queue[i]
	letters:
		for _, tr := range c.nfa.Trans[from.q] {
			done := from.done
			for k, s := range tr.Tuple {
				if s == alphabet.Pad {
					done |= 1 << k
				} else if from.done&(1<<k) != 0 {
					continue letters
				}
			}
			var move func(k int, verts []int)
			move = func(k int, verts []int) {
				switch {
				case k == len(verts):
					visit(node{q: tr.To, verts: slices.Clone(verts), done: done, parent: i, letter: tr.Tuple})
				case tr.Tuple[k] == alphabet.Pad:
					move(k+1, verts)
				default:
					for _, e := range db.Out(from.verts[k]) {
						if e.Label == tr.Tuple[k] {
							verts[k] = e.To
							move(k+1, verts)
						}
					}
				}
			}
			move(0, slices.Clone(from.verts))
		}
	}
	if goal < 0 {
		return nil, 0, false
	}
	paths = make([]graphdb.Path, len(srcs))
	for i := range paths {
		paths[i].Start = srcs[i]
	}
	for slot := goal; queue[slot].parent >= 0; slot = queue[slot].parent {
		for k, s := range queue[slot].letter {
			if s != alphabet.Pad {
				paths[k].Edges = append(paths[k].Edges, graphdb.Edge{Label: s, To: queue[slot].verts[k]})
			}
		}
	}
	for i := range paths {
		slices.Reverse(paths[i].Edges)
	}
	return paths, queue[goal].parent, true
}

func samePaths(a, b []graphdb.Path) bool {
	return slices.EqualFunc(a, b, func(p, q graphdb.Path) bool {
		return p.Start == q.Start && slices.Equal(p.Edges, q.Edges)
	})
}

// TestSearchStopsAtGeneration: a search stops once the state that decides it
// is queued, not once it is popped. On two satisfiable 3-track chains of the
// generic-search workload at V = 16, from the sources of the witness
// Evaluate finds, a fresh kernel asked for a reachable destination tuple
// expands at most the reference search's slot of the deciding state's
// parent, plus one: the parent itself. Testing at the pop expands every
// state queued before the deciding one. Both key regimes.
func TestSearchStopsAtGeneration(t *testing.T) {
	a := alphabet.Lower(2)
	ctx := context.Background()
	hamming := synchro.HammingAtMost(a, 1)
	for _, in := range []struct {
		name string
		q    *query.Query
	}{
		{"chain-prefix3", prefixChain3(a)},
		{"chain-hamming3", query.NewBuilder(a).
			Reach("x", "p1", "y").Reach("x", "p2", "y").Reach("x", "p3", "y").
			Rel(hamming, "p1", "p2").Rel(hamming, "p2", "p3").
			Lang("p1", "aa(a|b)*").Lang("p3", "bb(a|b)*").MustBuild()},
	} {
		db := genericCheckDB(a, 16)
		res, err := Evaluate(db, in.q, Options{Strategy: Generic})
		if err != nil || !res.Sat {
			t.Fatalf("%s: sat=%v err=%v, want a witness", in.name, res != nil && res.Sat, err)
		}
		c := mergedComponents(t, in.q)[0]
		srcs := make([]int, len(c.tracks))
		for k, tr := range c.tracks {
			srcs[k] = res.Nodes[tr.srcVar]
		}
		flat, err := freshReachSet(ctx, db, &c, srcs)
		if err != nil {
			t.Fatal(err)
		}
		tuples := len(flat) / len(srcs)
		for i := 0; i < tuples; i += max(1, tuples/8) {
			dsts := flat[i*len(srcs) : (i+1)*len(srcs)]
			_, parent, ok := referenceWitness(db, &c, srcs, dsts)
			if !ok {
				t.Fatalf("%s %v→%v: in the reach set, but the reference finds no witness", in.name, srcs, dsts)
			}
			for name, regime := range map[string]func(func()){"narrow": func(f func()) { f() }, "wide": inWideRegime} {
				regime(func() {
					fp := newFastProduct(db, &c)
					defer fp.releaseMem()
					if found, err := fp.reach(ctx, srcs, dsts, 0); err != nil || !found {
						t.Fatalf("%s %s %v→%v: found=%v err=%v", in.name, name, srcs, dsts, found, err)
					}
					if fp.expanded > parent+1 {
						t.Fatalf("%s %s %v→%v: %d states expanded, the deciding state's parent is slot %d",
							in.name, name, srcs, dsts, fp.expanded, parent)
					}
				})
			}
		}
	}
}

// TestWitnessFromSearch: the witness read off the search that decided — the
// live traversal resumed, the parent links walked, each step's letter
// re-derived from one more expansion of the step's parent — is, path for
// path and edge for edge, the one a breadth-first search of its own with
// stored letters gives, whatever the kernel did before it was asked: nothing;
// reach calls under the same sources, some of them answered from the
// accepted set without advancing; Run and componentReachSet, which reorder
// the destination list in place; a traversal that failed on its state
// budget or on cancellation; a reach under other sources. A witness asked
// of a recorded live traversal begins no traversal. Every instance of the
// generic differential suite, in both key regimes; and the suite's results
// are pinned. Decisions, nodes and paths (the digest) are what the generic
// strategy returned over the merged automaton when it was still the
// EagerMerge option beside the lazy multi-relation product (a9438df): the
// same automaton searched in the same order. The counts of the search's
// work are those of the goal test at generation, with an empty merged
// relation decided by prepare; they were 17828 checks, 21777 assignments,
// 1933 traversals and 17221 states when the goal was tested at the pop.
func TestWitnessFromSearch(t *testing.T) {
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	kernelOf := func(in genericInstance, c *component) *fastProduct {
		fp := newFastProduct(in.db, c)
		fp.paths = true
		t.Cleanup(fp.releaseMem)
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
			flat, err := freshReachSet(ctx, in.db, c, srcs)
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
				want, _, ok := referenceWitness(in.db, c, srcs, dsts)
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
	const merged = "399 sat, 4655 checks, 6148 assignments, 1004 traversals, 14831 states, digest 02baf91f01b299b7"
	if got != merged {
		t.Fatalf("the differential suite's results moved:\n got  %s\n want %s (digest: EagerMerge at a9438df)", got, merged)
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

// freshReachSet is componentReachSet on a kernel of its own.
func freshReachSet(ctx context.Context, db *graphdb.DB, c *component, srcs []int) ([]int, error) {
	fp := newFastProduct(db, c)
	defer fp.releaseMem()
	return componentReachSet(ctx, fp, srcs, 0, nil)
}

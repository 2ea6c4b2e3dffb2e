package cq

import (
	"fmt"
	"slices"
)

// Plan is the query-only half of the Proposition 2.3 evaluation: everything
// the tree-decomposition join needs that does not depend on the structure,
// computed once by Compile and then executed any number of times by Eval and
// Answers. A Plan is immutable and safe for concurrent use; the query it was
// compiled from must not change afterwards.
type Plan struct {
	q     *Query
	vars  []string   // variable id → name (Query.Vars order)
	atoms []planAtom // parallel to q.Atoms
	// bags is the contracted decomposition in discovery order: a bag's
	// parent has a smaller index, so descending order is bottom-up and
	// ascending order is top-down.
	bags []planBag
}

// planAtom is how one atom's relation rows become table rows.
type planAtom struct {
	args []int    // variable id per tuple position
	vars []int    // the distinct variables, in first-occurrence order: the atom's columns
	cols []int    // tuple position each column is read from
	eq   [][2]int // tuple positions that must agree (a repeated variable)
}

// planBag is one bag's table layout and its place in the tree.
type planBag struct {
	parent int // -1 for a root
	kids   []int
	// vars maps table column → variable id: the atoms' variables in join
	// order, then (from column covered on) the bag variables no atom of
	// the bag mentions, which are extended over the whole domain.
	vars    []int
	covered int
	steps   []joinStep
	// sep and parentSep are the separator's columns in this table and in
	// the parent's table, in matching order.
	sep, parentSep []int
	// free lists (column, index into q.Free) for the free variables in
	// this bag; dirty marks bags whose subtree holds a free variable, the
	// only ones a candidate answer can shrink.
	free  [][2]int
	dirty bool
}

// joinStep joins one atom into a bag's table. The first step of a bag has
// no key columns and appends every atom column.
type joinStep struct {
	atom            int
	tabKey, atomKey []int // shared variables: table column, atom column
	extra           []int // atom columns appended to the table
}

// Compile does the per-query work of the tree-decomposition evaluator: it
// numbers the variables, decomposes the Gaifman graph, contracts every bag
// contained in a neighbour, roots each tree (at a bag holding a free
// variable when there is one), assigns each atom to a bag covering it, and
// fixes every table's column layout — so the join, semijoin and separator
// columns Eval works on are plain index lists.
//
//ecrpq:charged query-sized: every slice here is bounded by the query's variables and atoms
func Compile(q *Query) (*Plan, error) {
	if err := q.checkVars(); err != nil {
		return nil, err
	}
	g, vars := q.GaifmanGraph()
	p := &Plan{q: q, vars: vars, atoms: make([]planAtom, len(q.Atoms))}
	id := make(map[string]int, len(vars))
	for i, v := range vars {
		id[v] = i
	}
	isFree := make([]bool, len(vars))
	for _, f := range q.Free {
		isFree[id[f]] = true
	}
	for ai, at := range q.Atoms {
		pa := &p.atoms[ai]
		first := make(map[int]int, len(at.Args))
		for pos, v := range at.Args {
			pa.args = append(pa.args, id[v])
			if f, ok := first[id[v]]; ok {
				pa.eq = append(pa.eq, [2]int{f, pos})
			} else {
				first[id[v]] = pos
				pa.vars = append(pa.vars, id[v])
				pa.cols = append(pa.cols, pos)
			}
		}
	}
	if len(vars) == 0 {
		return p, nil
	}

	// Contract: a bag contained in a neighbour adds no constraint of its
	// own, only a table and a semijoin; fold it into that neighbour. The
	// min-fill decomposition has one bag per variable, so this removes most
	// of them.
	td := g.Decompose()
	sets := td.Bags // sorted variable ids
	adj := make([][]int, len(sets))
	for _, e := range td.TreeEdges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	alive := make([]bool, len(sets))
	for i := range alive {
		alive[i] = true
	}
	for changed := true; changed; {
		changed = false
		for a := range sets {
			if !alive[a] {
				continue
			}
			for _, b := range adj[a] {
				if !subset(sets[a], sets[b]) {
					continue
				}
				for _, n := range adj[a] {
					if n != b {
						adj[n][slices.Index(adj[n], a)] = b
						adj[b] = append(adj[b], n)
					}
				}
				adj[b] = slices.Delete(adj[b], slices.Index(adj[b], a), slices.Index(adj[b], a)+1)
				alive[a], changed = false, true
				break
			}
		}
	}

	// Root and renumber in discovery order. Rooting at a bag with a free
	// variable keeps the bags a candidate answer touches to the subtree
	// spanning the free variables.
	hasFree := func(b int) bool {
		return slices.ContainsFunc(sets[b], func(v int) bool { return isFree[v] })
	}
	num := make([]int, len(sets)) // decomposition bag → plan bag
	for i := range num {
		num[i] = -1
	}
	var order []int // plan bag → decomposition bag
	visit := func(root int) {
		num[root] = len(order)
		order = append(order, root)
		p.bags = append(p.bags, planBag{parent: -1})
		for i := num[root]; i < len(order); i++ {
			for _, c := range adj[order[i]] {
				if num[c] < 0 {
					num[c] = len(order)
					order = append(order, c)
					p.bags = append(p.bags, planBag{parent: i})
					p.bags[i].kids = append(p.bags[i].kids, num[c])
				}
			}
		}
	}
	for _, wantFree := range []bool{true, false} {
		for b := range sets {
			if alive[b] && num[b] < 0 && (!wantFree || hasFree(b)) {
				visit(b)
			}
		}
	}

	// Assign each atom to the first bag holding all its variables (its
	// variables form a clique in the Gaifman graph, so one exists) and lay
	// out each bag's columns in the order its atoms introduce them.
	col := make([]int, len(vars)) // variable id → column in the bag being laid out, or -1
	taken := make([]bool, len(p.atoms))
	for bi := range p.bags {
		bag := &p.bags[bi]
		set := sets[order[bi]]
		for _, v := range set {
			col[v] = -1
		}
		for ai := range p.atoms {
			pa := &p.atoms[ai]
			if taken[ai] || !subset(pa.vars, set) {
				continue
			}
			taken[ai] = true
			st := joinStep{atom: ai}
			for ac, v := range pa.vars {
				if col[v] >= 0 {
					st.tabKey = append(st.tabKey, col[v])
					st.atomKey = append(st.atomKey, ac)
				} else {
					col[v] = len(bag.vars)
					bag.vars = append(bag.vars, v)
					st.extra = append(st.extra, ac)
				}
			}
			bag.steps = append(bag.steps, st)
		}
		bag.covered = len(bag.vars)
		for _, v := range set {
			if col[v] < 0 {
				col[v] = len(bag.vars)
				bag.vars = append(bag.vars, v)
			}
		}
		for fi, f := range q.Free {
			if c := slices.Index(bag.vars, id[f]); c >= 0 {
				bag.free = append(bag.free, [2]int{c, fi})
			}
		}
		if bag.parent >= 0 {
			for pc, v := range p.bags[bag.parent].vars {
				if c := slices.Index(bag.vars, v); c >= 0 {
					bag.sep = append(bag.sep, c)
					bag.parentSep = append(bag.parentSep, pc)
				}
			}
		}
	}
	if ai := slices.Index(taken, false); ai >= 0 {
		return nil, fmt.Errorf("cq: no bag covers atom %d (decomposition bug)", ai)
	}
	for bi := len(p.bags) - 1; bi >= 0; bi-- {
		bag := &p.bags[bi]
		bag.dirty = bag.dirty || len(bag.free) > 0
		if bag.dirty && bag.parent >= 0 {
			p.bags[bag.parent].dirty = true
		}
	}
	return p, nil
}

// subset reports whether every element of a is in b, which ascends.
func subset(a, b []int) bool {
	for _, x := range a {
		if _, ok := slices.BinarySearch(b, x); !ok {
			return false
		}
	}
	return true
}

package cq

import (
	"fmt"
	"slices"
	"strconv"
)

// Plan is the query-only half of the Proposition 2.3 evaluation: everything
// the tree-decomposition join needs that does not depend on the structure,
// computed once by Compile and then executed any number of times by Eval and
// Answers. A Plan is immutable and safe for concurrent use; the query it was
// compiled from must not change afterwards.
type Plan struct {
	q     *Query
	atoms []planAtom // parallel to q.Atoms
	// bags is the contracted decomposition in discovery order: a bag's
	// parent has a smaller index, so descending order is bottom-up and
	// ascending order is top-down.
	bags []planBag
	// allBags and freeBags lay out the top-down walk over the reduced
	// tables, a level per bag: Eval's over every bag, Answers' over the
	// bags whose subtree holds a free variable.
	allBags, freeBags *streamPlan
}

// planAtom is how one atom's relation rows become table rows.
type planAtom struct {
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
	p := &Plan{q: q, atoms: make([]planAtom, len(q.Atoms))}
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
			if f, ok := first[id[v]]; ok {
				pa.eq = append(pa.eq, [2]int{f, pos})
			} else {
				first[id[v]] = pos
				pa.vars = append(pa.vars, id[v])
				pa.cols = append(pa.cols, pos)
			}
		}
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
	// variable keeps the bags Answers walks to the subtree spanning the
	// free variables.
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
	taken := make([]bool, len(p.atoms))
	for bi := range p.bags {
		bag := &p.bags[bi]
		set := sets[order[bi]]
		for ai := range p.atoms {
			if taken[ai] || !subset(p.atoms[ai].vars, set) {
				continue
			}
			taken[ai] = true
			st, vars := lay(bag.vars, p.atoms[ai].vars)
			st.atom, bag.vars = ai, vars
			bag.steps = append(bag.steps, st)
		}
		bag.covered = len(bag.vars)
		for _, v := range set {
			if !slices.Contains(bag.vars, v) {
				bag.vars = append(bag.vars, v)
			}
		}
		if bag.parent >= 0 {
			st, _ := lay(slices.Clip(p.bags[bag.parent].vars), bag.vars)
			bag.sep, bag.parentSep = st.atomKey, st.tabKey
		}
	}
	if ai := slices.Index(taken, false); ai >= 0 {
		return nil, fmt.Errorf("cq: no bag covers atom %d (decomposition bug)", ai)
	}

	// Answers walks the bags whose subtree holds a free variable: a tree
	// with none is satisfied once reduce has passed it, and adds no answer.
	walked := make([]bool, len(p.bags))
	for bi := len(p.bags) - 1; bi >= 0; bi-- {
		if walked[bi] = walked[bi] || hasFree(order[bi]); walked[bi] && p.bags[bi].parent >= 0 {
			walked[p.bags[bi].parent] = true
		}
	}
	all, free := &Query{}, &Query{Free: q.Free}
	for bi, bag := range p.bags {
		at := Atom{Rel: strconv.Itoa(bi)}
		for _, v := range bag.vars {
			at.Args = append(at.Args, vars[v])
		}
		if all.Atoms = append(all.Atoms, at); walked[bi] {
			free.Atoms = append(free.Atoms, at)
		}
	}
	var err error
	if p.allBags, err = planStream(all, false, true); err == nil {
		p.freeBags, err = planStream(free, true, true)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// lay returns the step that joins a table over the variables avars into one
// over tvars — the shared variables are the key, the rest are appended — and
// the joined table's variables.
//
//ecrpq:charged query-sized: a step's columns are bounded by the query's variables
func lay(tvars, avars []int) (joinStep, []int) {
	var st joinStep
	for ac, v := range avars {
		if tc := slices.Index(tvars, v); tc >= 0 {
			st.tabKey = append(st.tabKey, tc)
			st.atomKey = append(st.atomKey, ac)
		} else {
			st.extra = append(st.extra, ac)
			tvars = append(tvars, v)
		}
	}
	return st, tvars
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

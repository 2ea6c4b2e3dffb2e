package cq

import (
	"context"
	"fmt"
	"sort"
)

// Assignment maps query variables to domain elements.
type Assignment map[string]int

// EvalBacktrack decides Boolean satisfiability by backtracking search with
// forward checking: variables are assigned in an order that prefers
// variables constrained by already-grounded atoms, and every fully-grounded
// atom is checked as soon as possible. Returns a satisfying assignment if
// one exists.
//
//ecrpq:charged per-step scratch is one atom-arity tuple; peak live memory is the assignment map, sized by the query
func EvalBacktrack(s *Structure, q *Query) (Assignment, bool, error) {
	if err := q.Validate(s); err != nil {
		return nil, false, err
	}
	vars := q.Vars()
	if len(vars) == 0 {
		return Assignment{}, true, nil
	}
	// Candidate lists per variable from unary occurrences could prune more;
	// keep the core simple: order variables by connectivity (greedy: most
	// atoms shared with already-ordered variables first).
	order := orderVars(q, vars)
	assign := make(Assignment, len(vars))
	// Pre-index: for each variable, atoms whose last unassigned variable it
	// could be — checked dynamically instead for simplicity.
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(order) {
			return true
		}
		v := order[i]
		for d := 0; d < s.Domain; d++ {
			assign[v] = d
			ok := true
			for _, at := range q.Atoms {
				ground := true
				for _, a := range at.Args {
					if _, has := assign[a]; !has {
						ground = false
						break
					}
				}
				if !ground {
					continue
				}
				tuple := make([]int, len(at.Args))
				for k, a := range at.Args {
					tuple[k] = assign[a]
				}
				if !s.Contains(at.Rel, tuple...) {
					ok = false
					break
				}
			}
			if ok && rec(i+1) {
				return true
			}
			delete(assign, v)
		}
		return false
	}
	if rec(0) {
		return assign, true, nil
	}
	return nil, false, nil
}

// orderVars greedily orders variables so each next choice is constrained
// by as many already-grounded atoms as possible.
//
//ecrpq:charged query-sized: allocates one ordering over the variable list
func orderVars(q *Query, vars []string) []string {
	remaining := make(map[string]bool, len(vars))
	for _, v := range vars {
		remaining[v] = true
	}
	var order []string
	chosen := make(map[string]bool)
	for len(order) < len(vars) {
		best, bestScore := "", -1
		for _, v := range vars {
			if chosen[v] {
				continue
			}
			score := 0
			for _, at := range q.Atoms {
				has, linked := false, false
				for _, a := range at.Args {
					if a == v {
						has = true
					}
					if chosen[a] {
						linked = true
					}
				}
				if has && linked {
					score += 2
				} else if has {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		order = append(order, best)
		chosen[best] = true
	}
	return order
}

// table is an intermediate join result: a column list plus rows.
type table struct {
	cols []string
	rows [][]int
}

func (t *table) colIndex(c string) int {
	for i, x := range t.cols {
		if x == c {
			return i
		}
	}
	return -1
}

// joinTables performs a natural join of two tables (hash join on shared
// columns).
//
//ecrpq:charged intermediate bytes are charged by the caller: EvalTreeDecompBudget reports each bag's table delta through its ChargeFunc
func joinTables(a, b *table) *table {
	var shared []int // pairs flattened: a-index, b-index
	for bi, c := range b.cols {
		if ai := a.colIndex(c); ai >= 0 {
			shared = append(shared, ai, bi)
		}
	}
	// Output columns: a's columns then b's non-shared columns.
	var bExtra []int
	out := &table{cols: append([]string(nil), a.cols...)}
	for bi, c := range b.cols {
		if a.colIndex(c) < 0 {
			out.cols = append(out.cols, c)
			bExtra = append(bExtra, bi)
		}
	}
	// Hash b on shared key.
	keyOf := func(row []int, idxs []int, step, off int) string {
		buf := make([]byte, 0, 4*len(idxs)/step)
		for i := off; i < len(idxs); i += step {
			v := row[idxs[i]]
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		return string(buf)
	}
	h := make(map[string][][]int)
	for _, row := range b.rows {
		k := keyOf(row, shared, 2, 1)
		h[k] = append(h[k], row)
	}
	for _, arow := range a.rows {
		k := keyOf(arow, shared, 2, 0)
		for _, brow := range h[k] {
			nr := make([]int, 0, len(out.cols))
			nr = append(nr, arow...)
			for _, bi := range bExtra {
				nr = append(nr, brow[bi])
			}
			out.rows = append(out.rows, nr)
		}
	}
	return out
}

// semijoin removes from a the rows with no matching row in b on shared
// columns. If no columns are shared, a survives iff b is non-empty.
//
//ecrpq:charged never grows beyond its input: output rows are a subset of a's, charged by the caller's bag delta
func semijoin(a, b *table) *table {
	var aIdx, bIdx []int
	for bi, c := range b.cols {
		if ai := a.colIndex(c); ai >= 0 {
			aIdx = append(aIdx, ai)
			bIdx = append(bIdx, bi)
		}
	}
	if len(aIdx) == 0 {
		if len(b.rows) == 0 {
			return &table{cols: a.cols}
		}
		return a
	}
	h := make(map[string]bool)
	mk := func(row []int, idxs []int) string {
		buf := make([]byte, 0, 4*len(idxs))
		for _, i := range idxs {
			v := row[i]
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		return string(buf)
	}
	for _, row := range b.rows {
		h[mk(row, bIdx)] = true
	}
	out := &table{cols: a.cols}
	for _, row := range a.rows {
		if h[mk(row, aIdx)] {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// dedup removes duplicate rows in place.
//
//ecrpq:charged shrinking pass over an already-charged table; the seen-set scratch is released at return
func (t *table) dedup() {
	seen := make(map[string]bool, len(t.rows))
	out := t.rows[:0]
	for _, r := range t.rows {
		k := key(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	t.rows = out
}

// atomTable materializes an atom as a table over its distinct variables,
// filtering tuples inconsistent with repeated variables.
//
//ecrpq:charged intermediate bytes are charged by the caller: EvalTreeDecompBudget reports each bag's table delta through its ChargeFunc
func atomTable(s *Structure, at Atom) *table {
	rel := s.Relation(at.Rel)
	// Distinct variables in order; positions per variable.
	var cols []string
	pos := make(map[string][]int)
	for i, v := range at.Args {
		if _, ok := pos[v]; !ok {
			cols = append(cols, v)
		}
		pos[v] = append(pos[v], i)
	}
	t := &table{cols: cols}
	for _, tup := range rel.Tuples {
		ok := true
		row := make([]int, len(cols))
		for ci, v := range cols {
			ps := pos[v]
			row[ci] = tup[ps[0]]
			for _, p := range ps[1:] {
				if tup[p] != row[ci] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			t.rows = append(t.rows, row)
		}
	}
	t.dedup()
	return t
}

// ChargeFunc accounts join-intermediate bytes during tree-decomposition
// evaluation: positive deltas charge, negative deltas release (a table was
// replaced by a smaller one). Returning an error aborts the evaluation —
// the caller's budget is exhausted. A nil ChargeFunc disables accounting.
type ChargeFunc func(deltaBytes int64) error

// tableBytes estimates the live size of an intermediate join table.
func tableBytes(t *table) int64 {
	return 64 + int64(len(t.rows))*(24+8*int64(len(t.cols)))
}

// EvalTreeDecomp decides Boolean satisfiability via a tree-decomposition
// dynamic program over the query's Gaifman graph: atoms are assigned to bags
// containing all their variables, bag tables are the joins of their assigned
// atoms extended over uncovered bag variables, and a bottom-up semijoin pass
// over the decomposition decides satisfiability. For fixed decomposition
// width w this runs in time O(poly(|D|^{w+1})) — the Proposition 2.3
// algorithm. A satisfying assignment is reconstructed top-down.
func EvalTreeDecomp(s *Structure, q *Query) (Assignment, bool, error) {
	return EvalTreeDecompBudget(s, q, nil)
}

// EvalTreeDecompBudget is EvalTreeDecomp with byte accounting: every time a
// bag table is built, extended, or replaced by a semijoin, the size delta is
// reported through charge, so a resource governor sees join intermediates as
// they grow and can abort the query before they exhaust the process budget.
func EvalTreeDecompBudget(s *Structure, q *Query, charge ChargeFunc) (Assignment, bool, error) {
	if err := q.Validate(s); err != nil {
		return nil, false, err
	}
	vars := q.Vars()
	if len(vars) == 0 {
		return Assignment{}, true, nil
	}
	g, varNames := q.GaifmanGraph()
	td := g.Decompose()
	// Bags as variable-name sets.
	bags := make([][]string, len(td.Bags))
	for i, b := range td.Bags {
		for _, v := range b {
			bags[i] = append(bags[i], varNames[v])
		}
		sort.Strings(bags[i])
	}
	// Assign each atom to a bag containing all its variables. Such a bag
	// exists because an atom's variables form a clique in the Gaifman graph.
	atomBag := make([]int, len(q.Atoms))
	for ai, at := range q.Atoms {
		found := -1
		for bi, bag := range bags {
			if containsAll(bag, at.Args) {
				found = bi
				break
			}
		}
		if found < 0 {
			return nil, false, fmt.Errorf("cq: no bag covers atom %d (decomposition bug)", ai)
		}
		atomBag[ai] = found
	}
	// Build bag tables. curBytes tracks each bag's charged size so every
	// replacement (join, extension, dedup, later semijoin) reports only the
	// delta — the charge function sees a running approximation of live
	// intermediate bytes, not a monotone total.
	tables := make([]*table, len(bags))
	curBytes := make([]int64, len(bags))
	account := func(bi int, t *table) error {
		if charge == nil {
			return nil
		}
		nb := tableBytes(t)
		if err := charge(nb - curBytes[bi]); err != nil {
			return err
		}
		curBytes[bi] = nb
		return nil
	}
	for bi, bag := range bags {
		t := &table{cols: nil, rows: [][]int{{}}}
		for ai, at := range q.Atoms {
			if atomBag[ai] != bi {
				continue
			}
			t = joinTables(t, atomTable(s, at))
			if err := account(bi, t); err != nil {
				return nil, false, err
			}
			if len(t.rows) == 0 {
				break
			}
		}
		// Extend over uncovered bag variables.
		for _, v := range bag {
			if t.colIndex(v) >= 0 {
				continue
			}
			ext := &table{cols: append(append([]string(nil), t.cols...), v)}
			for _, row := range t.rows {
				for d := 0; d < s.Domain; d++ {
					nr := make([]int, 0, len(row)+1)
					nr = append(nr, row...)
					nr = append(nr, d)
					ext.rows = append(ext.rows, nr)
				}
			}
			t = ext
			if err := account(bi, t); err != nil {
				return nil, false, err
			}
		}
		t.dedup()
		if err := account(bi, t); err != nil {
			return nil, false, err
		}
		tables[bi] = t
	}
	// Build decomposition tree adjacency; the decomposition may be a forest
	// (disconnected query), handle each tree.
	nb := len(bags)
	adj := make([][]int, nb)
	for _, e := range td.TreeEdges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	visited := make([]bool, nb)
	parent := make([]int, nb)
	var roots []int
	var orderAll []int
	for r := 0; r < nb; r++ {
		if visited[r] {
			continue
		}
		roots = append(roots, r)
		parent[r] = -1
		visited[r] = true
		stack := []int{r}
		var comp []int
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, b)
			for _, c := range adj[b] {
				if !visited[c] {
					visited[c] = true
					parent[c] = b
					stack = append(stack, c)
				}
			}
		}
		orderAll = append(orderAll, comp...)
	}
	// Bottom-up semijoin (children into parents), processing in reverse
	// discovery order.
	for i := len(orderAll) - 1; i >= 0; i-- {
		b := orderAll[i]
		p := parent[b]
		if p < 0 {
			continue
		}
		tables[p] = semijoin(tables[p], tables[b])
		if err := account(p, tables[p]); err != nil {
			return nil, false, err
		}
	}
	for _, r := range roots {
		if len(tables[r].rows) == 0 {
			return nil, false, nil
		}
	}
	// Top-down witness extraction: fix the root rows, then for each child
	// pick a row consistent with its parent's chosen row.
	chosen := make([][]int, nb)
	assign := make(Assignment)
	for _, b := range orderAll { // parents before children in discovery order
		t := tables[b]
		var pick []int
		if parent[b] < 0 {
			pick = t.rows[0]
		} else {
			prow := chosen[parent[b]]
			ptab := tables[parent[b]]
			for _, row := range t.rows {
				ok := true
				for ci, c := range t.cols {
					if pi := ptab.colIndex(c); pi >= 0 && prow[pi] != row[ci] {
						ok = false
						break
					}
				}
				// Also consistent with the global assignment so far (shared
				// variables across separators are covered by parent check,
				// but assign covers cross-branch consistency too).
				if ok {
					for ci, c := range t.cols {
						if v, has := assign[c]; has && v != row[ci] {
							ok = false
							break
						}
					}
				}
				if ok {
					pick = row
					break
				}
			}
			if pick == nil {
				// Should not happen after semijoins; fall back to search.
				return EvalBacktrack(s, q)
			}
		}
		chosen[b] = pick
		for ci, c := range t.cols {
			assign[c] = pick[ci]
		}
	}
	// Variables in no bag cannot exist (every variable is in some bag).
	// Verify the assignment defensively.
	for _, at := range q.Atoms {
		tuple := make([]int, len(at.Args))
		for i, a := range at.Args {
			tuple[i] = assign[a]
		}
		if !s.Contains(at.Rel, tuple...) {
			// Semijoin certifies satisfiability; the greedy witness pick can
			// fail on diamond-shaped consistency, so fall back to search.
			return EvalBacktrack(s, q)
		}
	}
	return assign, true, nil
}

func containsAll(sorted []string, items []string) bool {
	for _, x := range items {
		i := sort.SearchStrings(sorted, x)
		if i >= len(sorted) || sorted[i] != x {
			return false
		}
	}
	return true
}

// AllAnswers enumerates the answer set over the free variables by
// substituting every combination of domain values for the free variables and
// deciding the resulting Boolean query with the tree-decomposition
// evaluator. The result is sorted lexicographically. ctx is polled once per
// substituted tuple, so a cancelled enumeration returns ctx.Err() within
// one evaluation.
func AllAnswers(ctx context.Context, s *Structure, q *Query) ([][]int, error) {
	if err := q.Validate(s); err != nil {
		return nil, err
	}
	if len(q.Free) == 0 {
		return nil, fmt.Errorf("cq: AllAnswers on a Boolean query")
	}
	var out [][]int
	tuple := make([]int, len(q.Free))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(q.Free) {
			if err := ctx.Err(); err != nil {
				return err
			}
			sub, err := substitute(s, q, tuple)
			if err != nil {
				return err
			}
			_, ok, err := EvalTreeDecomp(s, sub)
			if err != nil {
				return err
			}
			if ok {
				out = append(out, append([]int(nil), tuple...))
			}
			return nil
		}
		for d := 0; d < s.Domain; d++ {
			tuple[i] = d
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out, nil
}

// substitute pins free variables to constants by adding singleton unary
// relations const_<var>=<val> and the corresponding atoms.
//
//ecrpq:charged query-sized rewrite: adds one singleton relation and atom per free variable
func substitute(s *Structure, q *Query, values []int) (*Query, error) {
	out := &Query{Atoms: append([]Atom(nil), q.Atoms...)}
	for i, f := range q.Free {
		name := fmt.Sprintf("__const_%s_%d", f, values[i])
		if s.Relation(name) == nil {
			if err := s.AddRelation(name, 1); err != nil {
				return nil, err
			}
			if err := s.AddTuple(name, values[i]); err != nil {
				return nil, err
			}
		}
		out.Atoms = append(out.Atoms, Atom{Rel: name, Args: []string{f}})
	}
	return out, nil
}

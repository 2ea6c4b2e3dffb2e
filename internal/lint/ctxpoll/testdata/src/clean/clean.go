// Package clean holds loops the ctxpoll analyzer must accept: bounded by
// form, polling directly or through a callee, or annotated.
package clean

import "context"

// pollsDirect checks ctx.Err in the loop body.
func pollsDirect(ctx context.Context, next func(int) []int) (int, error) {
	frontier := []int{0}
	n := 0
	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		cur := frontier[0]
		frontier = frontier[1:]
		n++
		frontier = append(frontier, next(cur)...)
	}
	return n, nil
}

// cancelled is the polling helper pollsViaCallee relies on.
func cancelled(ctx context.Context) bool { return ctx.Err() != nil }

// pollsViaCallee reaches the poll through the call graph.
func pollsViaCallee(ctx context.Context, step func() bool) int {
	n := 0
	for {
		if cancelled(ctx) || step() {
			return n
		}
		n++
	}
}

// boundedRange iterates a fixed collection.
func boundedRange(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// boundedThreeClause has a fixed trip count.
func boundedThreeClause(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}

// indexOverFixed measures len() in the condition but never grows the
// slice, so the bound cannot move.
func indexOverFixed(xs []int) int {
	s := 0
	for i := 0; i < len(xs); i++ {
		s += xs[i]
	}
	return s
}

// annotatedLoop carries the statement-level directive.
func annotatedLoop(q []int) int {
	n := 0
	//ecrpq:bounded fixture: q only shrinks
	for len(q) > 0 {
		q = q[1:]
		n++
	}
	return n
}

// annotatedFunc is exempt as a whole by its doc directive.
//
//ecrpq:bounded fixture: terminates after three steps by construction
func annotatedFunc() int {
	n := 0
	for {
		n++
		if n == 3 {
			break
		}
	}
	return n
}

package cq

import "context"

// Assignment maps query variables to domain elements.
type Assignment map[string]int

// EvalBacktrack is the reference evaluator the compiled plan is tested
// against; nothing calls it at run time. It decides Boolean satisfiability by
// backtracking with forward checking: variables are assigned in an order
// that prefers those constrained by already-grounded atoms, and every
// fully-grounded atom is checked as soon as possible. It returns a satisfying
// assignment if one exists. ctx is polled every pollRows assignments tried.
//
//ecrpq:charged per-step scratch is one atom-arity tuple; peak live memory is the assignment map, sized by the query
func EvalBacktrack(ctx context.Context, s *Structure, q *Query) (Assignment, bool, error) {
	if err := q.Validate(s); err != nil {
		return nil, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	vars := q.Vars()
	if len(vars) == 0 {
		return Assignment{}, true, nil
	}
	order := orderVars(q, vars)
	assign := make(Assignment, len(vars))
	var err error
	poll := poller{ctx, pollRows}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(order) {
			return true
		}
		v := order[i]
		for d := 0; d < s.Domain && err == nil; d++ {
			err = poll.tick()
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
	if rec(0) && err == nil {
		return assign, true, nil
	}
	return nil, false, err
}

// orderVars greedily orders variables so each next choice is constrained
// by as many already-grounded atoms as possible.
//
//ecrpq:charged query-sized: allocates one ordering over the variable list
func orderVars(q *Query, vars []string) []string {
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

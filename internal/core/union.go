package core

import (
	"context"
	"slices"

	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
)

// UnionResult is the outcome of evaluating a UECRPQ: the first satisfying
// disjunct's witness, if any.
type UnionResult struct {
	Sat      bool
	Disjunct int // index of the satisfying disjunct (-1 when unsat)
	Result   *Result
}

// EvaluateUnion decides a UECRPQ (finite union of ECRPQs): satisfied iff
// some disjunct is. The paper's characterization extends verbatim to unions
// — every measure of the union's class is the max over disjuncts.
func EvaluateUnion(db *graphdb.DB, u *query.UnionQuery, opts Options) (*UnionResult, error) {
	return EvaluateUnionContext(context.Background(), db, u, opts)
}

// EvaluateUnionContext is EvaluateUnion with cancellation (see
// EvaluateContext).
func EvaluateUnionContext(ctx context.Context, db *graphdb.DB, u *query.UnionQuery, opts Options) (*UnionResult, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	for i, q := range u.Disjuncts {
		res, err := EvaluateContext(ctx, db, q, opts)
		if err != nil {
			return nil, err
		}
		if res.Sat {
			return &UnionResult{Sat: true, Disjunct: i, Result: res}, nil
		}
	}
	return &UnionResult{Sat: false, Disjunct: -1}, nil
}

// AnswersUnion computes the answer set of a UECRPQ with free variables: the
// union of the disjuncts' answer sets, deduplicated and sorted.
func AnswersUnion(db *graphdb.DB, u *query.UnionQuery, opts Options) ([][]int, error) {
	return AnswersUnionContext(context.Background(), db, u, opts)
}

// AnswersUnionContext is AnswersUnion with cancellation (see
// EvaluateContext).
func AnswersUnionContext(ctx context.Context, db *graphdb.DB, u *query.UnionQuery, opts Options) ([][]int, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	var out [][]int
	for _, q := range u.Disjuncts {
		ans, err := AnswersContext(ctx, db, q, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, ans...)
	}
	slices.SortFunc(out, slices.Compare[[]int])
	return slices.CompactFunc(out, slices.Equal[[]int]), nil
}

// Package clean must produce no boundedrun diagnostics: computed
// budgets are fine, an unrelated Run method is not the analyzer's
// business, and an explicitly suppressed unlimited call is silenced.
package clean

import "context"

type fastProduct struct{}

func (f *fastProduct) Run(ctx context.Context, srcs []int, maxStates int) error {
	return nil
}

func (f *fastProduct) begin(ctx context.Context, srcs []int, maxStates int) error {
	return nil
}

func (f *fastProduct) seek(ctx context.Context, want uint64) (bool, error) {
	return false, nil
}

func (f *fastProduct) witness(ctx context.Context, srcs, dsts []int, maxStates int) ([]int, bool, error) {
	return nil, false, nil
}

type sweepKernel struct{}

func (k *sweepKernel) Run(ctx context.Context, first, lo, hi, maxStates int) error {
	return nil
}

// A package-level function is not one of the kernel's traversals, whatever
// it is called and whatever its last argument.
func searchAll(ctx context.Context, srcs []int, maxStates int) (int, error) {
	return -1, nil
}

type runner struct{}

// Run on an unrelated type is out of scope even with a trailing 0.
func (r *runner) Run(n int) int { return n }

func boundedMethod(ctx context.Context, fp *fastProduct, srcs []int, budget int) error {
	return fp.Run(ctx, srcs, budget)
}

// seek resumes a traversal under the budget its begin fixed; destination
// key 0 (every track at vertex 0) is not a budget.
func boundedTraversal(ctx context.Context, fp *fastProduct, srcs []int, budget int) (bool, error) {
	if err := fp.begin(ctx, srcs, budget); err != nil {
		return false, err
	}
	return fp.seek(ctx, 0)
}

func boundedWitness(ctx context.Context, fp *fastProduct, srcs, dsts []int, budget int) ([]int, bool, error) {
	return fp.witness(ctx, srcs, dsts, budget)
}

func otherSearch(ctx context.Context, srcs []int) (int, error) {
	return searchAll(ctx, srcs, 0)
}

// A batch whose first source is index 0 is not an unlimited search: only
// the trailing budget argument counts.
func boundedBatch(ctx context.Context, k *sweepKernel, budget int) error {
	return k.Run(ctx, 0, 0, 64, budget)
}

func otherRun(r *runner) int {
	return r.Run(0)
}

func suppressed(ctx context.Context, fp *fastProduct, srcs []int) error {
	//ecrpq:ignore boundedrun -- offline tooling path with an external watchdog
	return fp.Run(ctx, srcs, 0)
}

// Package violation exercises every boundedrun diagnostic. The types
// mirror the core package's search entry points: a fastProduct and a
// sweepKernel with Run methods and a package-level productSearch, all
// taking maxStates last.
package violation

import "context"

type fastProduct struct{}

func (f *fastProduct) Run(ctx context.Context, srcs []int, accept func([]int) bool, maxStates int) (bool, error) {
	return false, nil
}

type sweepKernel struct{}

func (k *sweepKernel) Run(ctx context.Context, first, lo, hi, maxStates int) error {
	return nil
}

func productSearch(ctx context.Context, srcs []int, accept func([]int) bool, maxStates int) (int, error) {
	return -1, nil
}

func unboundedMethod(ctx context.Context, fp *fastProduct, srcs []int) (bool, error) {
	return fp.Run(ctx, srcs, nil, 0) // want `fastProduct.Run called with a literal 0 maxStates`
}

func unboundedValueReceiver(ctx context.Context, fp fastProduct, srcs []int) (bool, error) {
	return fp.Run(ctx, srcs, nil, (0)) // want `fastProduct.Run called with a literal 0 maxStates`
}

func unboundedSearch(ctx context.Context, srcs []int) (int, error) {
	return productSearch(ctx, srcs, nil, 0x0) // want `productSearch called with a literal 0 maxStates`
}

func unboundedBatch(ctx context.Context, k *sweepKernel) error {
	return k.Run(ctx, 0, 0, 64, 0) // want `sweepKernel.Run called with a literal 0 maxStates`
}

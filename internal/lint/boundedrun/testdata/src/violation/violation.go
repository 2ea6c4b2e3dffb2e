// Package violation exercises every boundedrun diagnostic. The types
// mirror the core package's search entry points: a fastProduct whose begin,
// Run, reach and witness fix a traversal's budget and a sweepKernel with a
// Run method, all taking maxStates last.
package violation

import "context"

type fastProduct struct{}

func (f *fastProduct) Run(ctx context.Context, srcs []int, maxStates int) error {
	return nil
}

func (f *fastProduct) begin(ctx context.Context, srcs []int, maxStates int) error {
	return nil
}

func (f *fastProduct) reach(ctx context.Context, srcs, dsts []int, maxStates int) (bool, error) {
	return false, nil
}

func (f *fastProduct) witness(ctx context.Context, srcs, dsts []int, maxStates int) ([]int, bool, error) {
	return nil, false, nil
}

type sweepKernel struct{}

func (k *sweepKernel) Run(ctx context.Context, first, lo, hi, maxStates int) error {
	return nil
}

func unboundedMethod(ctx context.Context, fp *fastProduct, srcs []int) error {
	return fp.Run(ctx, srcs, 0) // want `fastProduct.Run called with a literal 0 maxStates`
}

func unboundedValueReceiver(ctx context.Context, fp fastProduct, srcs []int) error {
	return fp.Run(ctx, srcs, (0)) // want `fastProduct.Run called with a literal 0 maxStates`
}

func unboundedBegin(ctx context.Context, fp *fastProduct, srcs []int) error {
	return fp.begin(ctx, srcs, 0) // want `fastProduct.begin called with a literal 0 maxStates`
}

func unboundedReach(ctx context.Context, fp *fastProduct, srcs, dsts []int) (bool, error) {
	return fp.reach(ctx, srcs, dsts, 0b0) // want `fastProduct.reach called with a literal 0 maxStates`
}

func unboundedWitness(ctx context.Context, fp *fastProduct, srcs, dsts []int) ([]int, bool, error) {
	return fp.witness(ctx, srcs, dsts, 0x0) // want `fastProduct.witness called with a literal 0 maxStates`
}

func unboundedBatch(ctx context.Context, k *sweepKernel) error {
	return k.Run(ctx, 0, 0, 64, 0) // want `sweepKernel.Run called with a literal 0 maxStates`
}

package core

import (
	"math/bits"
	"sync"
)

// A kernel table — a rankTable's slots, a keySet's bitset, a wordTable's
// words and key list, a traversal's queue and its lists — keeps its backing
// array in a slab: an array taken from a pool of its power-of-two size class
// as the table grows and given back when the kernel is released
// (fastProduct.releaseMem, sweepKernel.release). A kernel therefore pays for
// the states its searches meet, not for allocating and collecting the tables
// that hold them again on every evaluation.
//
// The table sees exactly the length and capacity it had when it was a plain
// slice — a fixed size where it was made, append's growth where it was
// appended to — never the slack of the class: what a kernel charges is
// cap of what it holds, so every charge is what it was before the pool. An
// array in the pool is held by no search and charged to none, like garbage
// awaiting the collector, which empties the pools as it does any sync.Pool.
type slab[T uint64 | int32] struct {
	s   []T  // what the table reads and writes
	box *[]T // the pooled array behind s, 2^k long; nil while s is nil
}

// slabReuse and slabPoison are what the slab tests turn: with reuse off every
// take allocates, as the tables did before they were pooled; with poison on
// every array is all ones when it is handed out, so a table that reads what
// it has not written shows up. Nothing but a test assigns them.
var slabReuse, slabPoison = true, false

// slabPool holds the free arrays of one element type by size class, and
// what append's growth rule gives that type.
type slabPool[T uint64 | int32] struct {
	class [64]sync.Pool // class k: *[]T of length 2^k

	mu     sync.Mutex
	caps   map[[2]int]int // (old capacity, new length) → append's new capacity
	zeroed bool           // every array put back is all zero
}

var (
	wordSlabs slabPool[uint64]
	halfSlabs slabPool[int32]
	// zeroSlabs holds arrays handed back all zero (word tables over their
	// key space, cleared from their key lists): taking one clears nothing.
	zeroSlabs = slabPool[uint64]{zeroed: true}
)

func slabsOf[T uint64 | int32]() *slabPool[T] {
	var p any = &halfSlabs
	if _, ok := any(T(0)).(uint64); ok {
		p = &wordSlabs
	}
	return p.(*slabPool[T])
}

// takeSlab returns a table of n elements (len and cap n), all zero if zero
// is set and otherwise of unspecified contents; p.take takes it from p.
func takeSlab[T uint64 | int32](n int, zero bool) slab[T] { return slabsOf[T]().take(n, zero) }

//ecrpq:charged the owning kernel charges the table's cap as part of its footprint's high-water mark
func (p *slabPool[T]) take(n int, zero bool) slab[T] {
	if n == 0 {
		return slab[T]{}
	}
	k := bits.Len(uint(n - 1))
	box, _ := p.class[k].Get().(*[]T)
	made := box == nil || !slabReuse
	if made {
		buf := make([]T, 1<<k)
		box = &buf
	}
	if slabPoison && !p.zeroed { // a zeroed array is used as it came back: dirty, it shows
		for i := range *box {
			(*box)[i] = ^T(0)
		}
	}
	s := (*box)[:n:n]
	if zero && !p.zeroed && (!made || slabPoison) {
		clear(s)
	}
	return slab[T]{s: s, box: box}
}

// release gives the array back to its pool and leaves b empty.
func (b *slab[T]) release() { b.releaseTo(slabsOf[T]()) }

// releaseTo gives the array back to p and leaves b empty.
func (b *slab[T]) releaseTo(p *slabPool[T]) {
	if b.box != nil {
		p.class[bits.Len(uint(len(*b.box)))-1].Put(b.box)
	}
	*b = slab[T]{}
}

// push appends x, growing b as append would.
func (b *slab[T]) push(x T) {
	if len(b.s) == cap(b.s) {
		b.growOne()
	}
	b.s = append(b.s, x)
}

// growOne makes room for one more item: push's slow path, kept out of line
// so that push inlines into the kernels' per-state loops as append did.
//
//go:noinline
func (b *slab[T]) growOne() { b.grow(len(b.s) + 1) }

// extend appends k zeros, growing b as append would.
func (b *slab[T]) extend(k int) {
	n := len(b.s) + k
	if n > cap(b.s) {
		b.grow(n)
	}
	b.s = b.s[:n]
	clear(b.s[n-k:])
}

// grow moves b's items into a slab of the capacity append would give a slice
// of cap(b.s) growing to n elements.
//
//ecrpq:charged the owning kernel charges the table's cap as part of its footprint's high-water mark
func (b *slab[T]) grow(n int) {
	next := takeSlab[T](slabsOf[T]().grownCap(cap(b.s), n), false)
	next.s = next.s[:copy(next.s, b.s)]
	b.release()
	*b = next
}

// grownCap is the capacity append gives a full slice of capacity c that
// grows to n elements. The rule is the runtime's, and it is read off append
// itself once per (c, n) and remembered, never restated here.
func (p *slabPool[T]) grownCap(c, n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	got, ok := p.caps[[2]int{c, n}]
	if !ok {
		got = cap(append(make([]T, c), make([]T, n-c)...))
		if p.caps == nil {
			p.caps = make(map[[2]int]int)
		}
		if len(p.caps) < maxGrownCaps {
			p.caps[[2]int{c, n}] = got
		}
	}
	return got
}

// maxGrownCaps bounds what grownCap remembers. Tables grow along a few
// fixed sequences of capacities (one element, or one slot, at a time from
// empty), so the memo stays small; growth by other steps past the bound is
// probed every time.
const maxGrownCaps = 4096

package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs in is a 2-vCPU guest on a shared host,
// and what its neighbours do to the memory system moves every timing by
// 15–60 % for seconds or minutes at a time (steal time stays 0, a pure
// ALU loop barely notices; anything that misses the cache slows down).
// Runs of one binary ten minutes apart differ by more than any bound worth
// setting. So the benchmark carries a yardstick of its own: a fixed piece
// of work that shares nothing with the code under test, timed on the same
// cores every second of the run. A time metric is reported as measured ×
// refNominalMs ÷ what the yardstick took around the same moment, that is,
// in milliseconds of the machine as it is when the yardstick takes
// refNominalMs. The raw figures are printed beside the normalised ones.

const (
	refWords     = 1 << 20 // 8 MiB of uint64 per table: four times a core's L2
	refTables    = 4       // tables per client, read in rotation, so each is cold when its turn comes
	refSteps     = 300_000 // random read-modify-writes per pass
	refNominalMs = 3.7     // one pass on the defining machine with quiet neighbours
)

// reference is the yardstick. Every client has tables of its own, so that
// a reading loads as many cores at once as the closed loop keeps busy. The
// tables are mapped outside the Go heap: 64 MiB of live heap would change
// how often the collector runs for the server under test.
type reference struct {
	mapped []byte
	tables [][][]uint64 // [client][table]
}

func newReference() (*reference, error) {
	b, err := syscall.Mmap(-1, 0, clients*refTables*refWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the yardstick's tables: %w", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	r := &reference{mapped: b, tables: make([][][]uint64, clients)}
	for c := range r.tables {
		for i := 0; i < refTables; i++ {
			r.tables[c] = append(r.tables[c], words[:refWords:refWords])
			words = words[refWords:]
		}
	}
	return r, nil
}

func (r *reference) close() error {
	b := r.mapped
	r.mapped, r.tables = nil, nil
	return syscall.Munmap(b)
}

// pass does refSteps independent random read-modify-writes over t
// (xorshift64 indices) and returns a value that keeps the loop alive.
func pass(t []uint64, x uint64) uint64 {
	var sum uint64
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[x&(refWords-1)] += x
		sum += t[(x>>24)&(refWords-1)]
	}
	return sum
}

// slowdown takes one reading: on every client's core at once, one pass over
// each of the client's tables. The first pass is thrown away (the
// collector's background workers may still be finishing what the last
// requests left); the reading is the median of the others, averaged over
// the clients, over refNominalMs: 1 on the defining machine when it is
// quiet, 1.5 when memory-bound work takes half as long again. It is only
// called while no request is in flight, and allocates next to nothing.
func (r *reference) slowdown() float64 {
	var wg sync.WaitGroup
	ms := make([]float64, len(r.tables))
	for c, ts := range r.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var took [refTables]float64
			for i, t := range ts {
				start := time.Now()
				t[0] = pass(t, 2463534242+uint64(c))
				took[i] = float64(time.Since(start)) / float64(time.Millisecond)
			}
			ms[c] = median(took[1:], 1)
		}()
	}
	wg.Wait()
	return mean(ms) / refNominalMs
}

package stats

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/workload"
)

// bfsCount returns how many vertices (including u itself) are reachable
// from u following only edges accepted by allow: the per-source search the
// word-parallel passes replaced, kept as their oracle.
func bfsCount(db *graphdb.DB, u int, allow func(graphdb.Edge) bool, seen []bool, queue []int) int {
	for i := range seen {
		seen[i] = false
	}
	seen[u] = true
	queue = queue[:0]
	queue = append(queue, u)
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range db.Out(v) {
			if !seen[e.To] && allow(e) {
				seen[e.To] = true
				count++
				queue = append(queue, e.To)
			}
		}
	}
	return count
}

// oracleCompute is the catalog as Compute built it before the passes: label
// counts from a scan of Out, 1 + |Σ| searches per sampled source.
func oracleCompute(db *graphdb.DB, gen uint64) *Catalog {
	a := db.Alphabet()
	n := db.NumVertices()
	c := &Catalog{Generation: gen, Vertices: n, Edges: db.NumEdges(), Labels: make([]LabelStats, a.Size())}
	for i := range c.Labels {
		c.Labels[i].Label = a.Name(a.Symbols()[i])
	}
	outHist := make([]int, degreeBucket(c.Edges)+1)
	inHist := make([]int, degreeBucket(c.Edges)+1)
	srcSeen := make([]map[int]bool, a.Size())
	dstSeen := make([]map[int]bool, a.Size())
	for i := range srcSeen {
		srcSeen[i], dstSeen[i] = map[int]bool{}, map[int]bool{}
	}
	maxOut, maxIn := 0, 0
	for v := 0; v < n; v++ {
		outHist[degreeBucket(len(db.Out(v)))]++
		inHist[degreeBucket(len(db.In(v)))]++
		maxOut, maxIn = max(maxOut, len(db.Out(v))), max(maxIn, len(db.In(v)))
		for _, e := range db.Out(v) {
			c.Labels[e.Label].Count++
			srcSeen[e.Label][v] = true
			dstSeen[e.Label][e.To] = true
		}
	}
	for i := range c.Labels {
		c.Labels[i].DistinctSrc, c.Labels[i].DistinctDst = len(srcSeen[i]), len(dstSeen[i])
	}
	c.OutDegreeHist = outHist[:degreeBucket(maxOut)+1]
	c.InDegreeHist = inHist[:degreeBucket(maxIn)+1]
	sources := sampleSources(n)
	c.SampledSources = len(sources)
	if len(sources) > 0 {
		seen, queue := make([]bool, n), make([]int, 0, n)
		anyTotal, labelTotal := 0, make([]int, a.Size())
		for _, u := range sources {
			anyTotal += bfsCount(db, u, func(graphdb.Edge) bool { return true }, seen, queue)
			for l, sym := range a.Symbols() {
				labelTotal[l] += bfsCount(db, u, func(e graphdb.Edge) bool { return e.Label == sym }, seen, queue)
			}
		}
		denom := float64(len(sources)) * float64(n)
		c.AnyReachSelectivity = float64(anyTotal) / denom
		for l := range c.Labels {
			c.Labels[l].ReachSelectivity = float64(labelTotal[l]) / denom
		}
	}
	return c
}

// TestComputeMatchesOracle: the passes give every count and every float of
// the per-source searches, so the encoded catalog is the same bytes — on
// graphs below and above 32 vertices, with isolated vertices and self-loops,
// built edge by edge and parsed.
func TestComputeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 300; i++ {
		a := alphabet.Lower(1 + rng.Intn(4))
		n := 1 + rng.Intn(300)
		if i%3 == 0 {
			n = 1 + rng.Intn(40)
		}
		db := workload.RandomDB(rng, a, n, rng.Intn(3*n))
		for k := rng.Intn(4); k > 0; k-- {
			v := rng.Intn(n)
			db.MustAddEdge(v, a.Symbols()[rng.Intn(a.Size())], v)
		}
		if i%2 == 0 {
			var err error
			if db, err = graphdb.ParseString(db.FormatString()); err != nil {
				t.Fatal(err)
			}
		}
		got, err := Compute(context.Background(), db, uint64(i))
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if want := oracleCompute(db, uint64(i)); string(got.Encode()) != string(want.Encode()) {
			t.Fatalf("graph %d (V = %d, E = %d, |Σ| = %d):\n got %s\nwant %s", i, n, db.NumEdges(), a.Size(), got.Encode(), want.Encode())
		}
	}
}

// TestComputeChargesScratch: the passes' scratch is on the ledger while they
// run and off it afterwards, and a reservation that cannot hold it refuses
// the computation before any pass.
func TestComputeChargesScratch(t *testing.T) {
	db := workload.RandomDB(rand.New(rand.NewSource(1)), alphabet.Lower(3), 50000, 100000)
	scratch := int64(db.NumVertices()) * 13 // mask word, queue slot, queued flag

	ample, err := govern.NewBroker(0).Reserve(0)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := Compute(govern.NewContext(context.Background(), ample), db, 1)
	if err != nil {
		t.Fatalf("ample reservation: %v", err)
	}
	if ample.Used() != int64(cat.MemBytes()) {
		t.Errorf("%d bytes stay charged after Compute, the catalog holds %d", ample.Used(), cat.MemBytes())
	}
	if ample.Peak() < scratch {
		t.Errorf("peak charge %d is below the passes' scratch of %d bytes", ample.Peak(), scratch)
	}
	ample.Release()

	tight, err := govern.NewBroker(scratch / 2).Reserve(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tight.Release()
	if _, err := Compute(govern.NewContext(context.Background(), tight), db, 1); !errors.Is(err, govern.ErrResourceExhausted) {
		t.Errorf("a budget of half the scratch: error %v, want ErrResourceExhausted", err)
	}
	if tight.Used() != 0 {
		t.Errorf("%d bytes stay charged after the refusal", tight.Used())
	}
}

// pollCtx is cancelled from its k-th Err call on.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestComputeCancelledBetweenPasses: Compute polls before each of its 1 + |Σ|
// passes and gives up with the context's error at whichever poll fails.
func TestComputeCancelledBetweenPasses(t *testing.T) {
	db := workload.RandomDB(rand.New(rand.NewSource(2)), alphabet.Lower(3), 100, 300)
	for at := 1; at <= 4; at++ {
		ctx := &pollCtx{Context: context.Background(), cancelAt: at}
		if _, err := Compute(ctx, db, 1); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled at poll %d: error %v", at, err)
		}
		if ctx.polls != at {
			t.Errorf("cancelled at poll %d: Compute polled %d times", at, ctx.polls)
		}
	}
	ctx := &pollCtx{Context: context.Background(), cancelAt: 5}
	if _, err := Compute(ctx, db, 1); err != nil || ctx.polls != 4 {
		t.Errorf("never cancelled: error %v after %d polls, want 4", err, ctx.polls)
	}
}

var sinkCatalog *Catalog

func BenchmarkStatsCompute(b *testing.B) {
	for _, size := range [][2]int{{2000, 6000}, {20000, 60000}} {
		db := workload.RandomDB(rand.New(rand.NewSource(28)), alphabet.Lower(3), size[0], size[1])
		db.Forward()
		b.Run(fmt.Sprintf("V%d_E%d", size[0], size[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := Compute(context.Background(), db, 1)
				if err != nil {
					b.Fatal(err)
				}
				sinkCatalog = c
			}
		})
	}
}

package stats

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/workload"
)

func testDB(t *testing.T) *graphdb.DB {
	t.Helper()
	db, err := graphdb.ParseString(`
		alphabet a b
		v0 a v1
		v1 a v2
		v2 b v0
		v1 b v3
	`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return db
}

func TestComputeBasicCounts(t *testing.T) {
	db := testDB(t)
	c, err := Compute(context.Background(), db, 7)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if c.Generation != 7 {
		t.Errorf("generation = %d, want 7", c.Generation)
	}
	if c.Vertices != 4 || c.Edges != 4 {
		t.Errorf("V,E = %d,%d, want 4,4", c.Vertices, c.Edges)
	}
	if len(c.Labels) != 2 {
		t.Fatalf("labels = %d, want 2", len(c.Labels))
	}
	la, lb := c.Labels[0], c.Labels[1]
	if la.Label != "a" || la.Count != 2 || la.DistinctSrc != 2 || la.DistinctDst != 2 {
		t.Errorf("label a = %+v, want count=2 distinct_src=2 distinct_dst=2", la)
	}
	if lb.Label != "b" || lb.Count != 2 || lb.DistinctSrc != 2 || lb.DistinctDst != 2 {
		t.Errorf("label b = %+v, want count=2 distinct_src=2 distinct_dst=2", lb)
	}
	// All 4 vertices sampled (n < 32): every vertex reaches every vertex
	// except v3's successors (v3 has none) — reachable sets: v0:{0,1,2,3},
	// v1:{0,1,2,3}, v2:{0,1,2,3}, v3:{3} → 13/16.
	if got, want := c.AnyReachSelectivity, 13.0/16.0; got != want {
		t.Errorf("any-reach selectivity = %v, want %v", got, want)
	}
	if c.SampledSources != 4 {
		t.Errorf("sampled sources = %d, want 4", c.SampledSources)
	}
}

func TestDegreeHistograms(t *testing.T) {
	db := testDB(t)
	c, err := Compute(context.Background(), db, 1)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	// Out-degrees: v0:1, v1:2, v2:1, v3:0 → bucket0=1, bucket1(deg 1)=2,
	// bucket2(deg 2..3)=1.
	if want := []int{1, 2, 1}; !reflect.DeepEqual(c.OutDegreeHist, want) {
		t.Errorf("out hist = %v, want %v", c.OutDegreeHist, want)
	}
	total := 0
	for _, n := range c.InDegreeHist {
		total += n
	}
	if total != c.Vertices {
		t.Errorf("in hist sums to %d, want %d", total, c.Vertices)
	}
}

// TestDegreeAboveVertexCount: parallel edges of different labels take a
// degree past |V|, which the histogram must have a bucket for.
func TestDegreeAboveVertexCount(t *testing.T) {
	db, err := graphdb.ParseString("alphabet a b c\nx a x\nx b x\nx c x\n")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compute(context.Background(), db, 1)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if want := []int{0, 0, 1}; !reflect.DeepEqual(c.OutDegreeHist, want) || !reflect.DeepEqual(c.InDegreeHist, want) {
		t.Errorf("degree histograms = %v / %v, want %v", c.OutDegreeHist, c.InDegreeHist, want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	db := testDB(t)
	c, err := Compute(context.Background(), db, 42)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	b := c.Encode()
	if len(b) == 0 {
		t.Fatal("Encode returned empty")
	}
	c2, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(c, c2) {
		t.Errorf("round trip mismatch:\n  got  %+v\n  want %+v", c2, c)
	}
	if _, err := Decode([]byte("{")); err == nil {
		t.Error("Decode of malformed input succeeded")
	}
}

func TestComputeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := alphabet.MustNew("a", "b", "c")
	db := workload.RandomDB(rng, a, 200, 600)
	c1, err := Compute(context.Background(), db, 3)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	c2, err := Compute(context.Background(), db, 3)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if string(c1.Encode()) != string(c2.Encode()) {
		t.Error("two computations over the same graph differ")
	}
	if c1.SampledSources != maxSampledSources {
		t.Errorf("sampled sources = %d, want %d", c1.SampledSources, maxSampledSources)
	}
}

func TestSampleSourcesDistinct(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 1000} {
		s := sampleSources(n)
		want := n
		if want > maxSampledSources {
			want = maxSampledSources
		}
		if len(s) != want {
			t.Fatalf("n=%d: len=%d, want %d", n, len(s), want)
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= n {
				t.Fatalf("n=%d: sample %d out of range", n, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: duplicate sample %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestEmptyDB(t *testing.T) {
	db, err := graphdb.ParseString("alphabet a\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Compute(context.Background(), db, 1)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if c.Vertices != 0 || c.Edges != 0 || c.AnyReachSelectivity != 0 {
		t.Errorf("empty db catalog = %+v", c)
	}
}

func TestLabelByName(t *testing.T) {
	db := testDB(t)
	c, err := Compute(context.Background(), db, 1)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if l, ok := c.LabelByName("b"); !ok || l.Count != 2 {
		t.Errorf("LabelByName(b) = %+v, %v", l, ok)
	}
	if _, ok := c.LabelByName("zzz"); ok {
		t.Error("LabelByName(zzz) found")
	}
	var nilCat *Catalog
	if _, ok := nilCat.LabelByName("a"); ok {
		t.Error("nil catalog lookup found")
	}
	if nilCat.MemBytes() != 0 {
		t.Error("nil catalog MemBytes != 0")
	}
}

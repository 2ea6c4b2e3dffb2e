package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// dump renders ops 0…n-1 of a stream as the bytes that would go on the
// wire, and counts ops per class.
func dump(w *workload, seed int64, n int) ([]byte, []int) {
	s := newStream(w, seed, 'm')
	var buf bytes.Buffer
	counts := make([]int, len(w.classes))
	for i := 0; i < n; i++ {
		o := s.at(i)
		counts[o.class]++
		buf.WriteByte(byte(o.kind))
		buf.WriteString(o.db.name)
		buf.WriteByte('\n')
		buf.Write(o.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), counts
}

// TestStreamsAreSeeded: the same seed gives byte-identical request
// streams; another seed gives another stream with the same number of ops
// of each class.
func TestStreamsAreSeeded(t *testing.T) {
	for _, name := range workloadNames {
		w, err := buildWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		n := 3 * newStream(w, 1, 'm').size
		a, ca := dump(w, 1, n)
		w2, err := buildWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := dump(w2, 1, n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams of seed 1 differ", name)
		}
		c, cc := dump(w, 2, n)
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", name)
		}
		// A class marked first (share 1) opens every block, under any seed.
		hasFirst := false
		for _, c := range w.classes {
			hasFirst = hasFirst || c.first
		}
		s := newStream(w, 2, 'm')
		for i := 0; i < n; i++ {
			if o := s.at(i); w.classes[o.class].first != (hasFirst && i%s.size == 0) {
				t.Errorf("%s: op %d is of class %s", name, i, w.classes[o.class].name)
			}
		}
		for ci := range ca {
			if ca[ci] != cc[ci] || ca[ci] != 3*w.classes[ci].share {
				t.Errorf("%s: class %s has %d ops under seed 1 and %d under seed 2, want %d",
					name, w.classes[ci].name, ca[ci], cc[ci], 3*w.classes[ci].share)
			}
		}
	}
}

// TestTracedCountsRepeat: the traced run's exact-count metrics are the
// same on two replays of one prefix.
func TestTracedCountsRepeat(t *testing.T) {
	exact := []string{"core.cq_tuples_per_op", "core.product_checks_per_op", "core.node_assignments_per_op",
		"core.merged_states_per_op", "plancache.hit_ratio"}
	for _, tc := range []struct {
		name      string
		warm, ops int
	}{{"hot-cache", 20, 80}, {"cold-sweep", 2, 8}} {
		w, warm, err := prepare(tc.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		w.warmOps = tc.warm
		var runs []map[string]float64
		for i := 0; i < 2; i++ {
			meas := newStream(w, 1, 'm')
			tr, err := tracedReplay(w, warm, meas, tc.ops, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if tr.bad.count > 0 {
				t.Fatalf("%s: %d ops failed: %v", tc.name, tr.bad.count, tr.bad.first)
			}
			lt := foldSpans(w, tr)
			runs = append(runs, perLayerValues(&plainRun{ops: tc.ops, lat: 1}, tr, lt))
		}
		for _, k := range exact {
			if runs[0][k] != runs[1][k] {
				t.Errorf("%s: %s is %v on one replay and %v on the next", tc.name, k, runs[0][k], runs[1][k])
			}
		}
		if tc.name == "hot-cache" && runs[0]["plancache.hit_ratio"] != 1 {
			t.Errorf("hot-cache: plancache.hit_ratio %v, want 1", runs[0]["plancache.hit_ratio"])
		}
		if tc.name == "cold-sweep" && runs[0]["core.cq_tuples_per_op"] == 0 {
			t.Error("cold-sweep: no cq tuples counted")
		}
	}
}

// TestBenchmarkJSONNamesWhatIsPrinted holds ../BENCHMARK.json to the
// names and units the program prints.
func TestBenchmarkJSONNamesWhatIsPrinted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, the program has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program has %q", i, w.Name, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the program prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s], the program prints %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, the program prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s], the program prints %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

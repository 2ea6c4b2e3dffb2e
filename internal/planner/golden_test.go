package planner

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/core"
	"ecrpq/internal/query"
	"ecrpq/internal/stats"
	"ecrpq/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/resolve_golden.json from the current planner")

// goldenRow is one Resolve call: the decision's JSON plus the raw bits of
// its two totals, which JSON clamps when they are +Inf or NaN.
type goldenRow struct {
	Plan          string          `json:"plan"`
	Catalog       string          `json:"catalog"`
	Strategy      string          `json:"strategy"`
	Decision      json.RawMessage `json:"decision"`
	GenericBits   uint64          `json:"generic_bits"`
	ReductionBits uint64          `json:"reduction_bits"`
}

// TestResolveGolden pins every decision over a fixed grid of plans,
// catalogs and strategies: a cost-model change that moves any estimate,
// order or strategy by one bit shows up as a diff of
// testdata/resolve_golden.json. Regenerate with -update only when the
// change is meant to move decisions.
func TestResolveGolden(t *testing.T) {
	a := alphabet.Lower(3)
	type namedPlan struct {
		name string
		plan *core.Plan
	}
	var plans []namedPlan
	explain := func(name string, q *query.Query) {
		plan, err := core.Explain(q, core.Options{})
		if err != nil {
			t.Fatalf("Explain %s: %v", name, err)
		}
		plans = append(plans, namedPlan{name, plan})
	}
	for _, k := range []int{2, 3, 4} {
		explain(fmt.Sprintf("fan(%d)", k), workload.FanQuery(a, k))
	}
	for _, k := range []int{3, 4, 5} { // 3, 6 and 10 components: DP, DP, greedy
		explain(fmt.Sprintf("clique(%d)", k), workload.CliqueQuery(a, k))
	}
	explain("pairchain(4)", workload.PairChainQuery(a, 4))
	explain("eqchain(3)", workload.EqChainQuery(a, 3))
	explain("crpqpath(4)", workload.CRPQPathQuery(a, 4))
	plans = append(plans, namedPlan{"singletons(9)", singletonPlan(9)}, namedPlan{"singletons(301)", singletonPlan(301)})

	cats := []struct {
		name string
		cat  *stats.Catalog
	}{
		{"nil", nil},
		{"random(9,30,90)", catalogFor(t, 9, a, 30, 90)},
		{"dense", &stats.Catalog{Generation: 1, Vertices: 1000, Edges: 4000, AnyReachSelectivity: 1}},
		{"huge", &stats.Catalog{Generation: 1, Vertices: 1 << 12, Edges: 1 << 13, AnyReachSelectivity: 0.5}},
		{"nan", &stats.Catalog{Generation: 1, Vertices: 10, AnyReachSelectivity: math.NaN()}},
	}

	var rows []goldenRow
	for _, p := range plans {
		for _, c := range cats {
			for _, s := range []core.Strategy{core.Auto, core.Generic, core.Reduction} {
				d := Resolve(c.cat, p.plan, core.Options{Strategy: s}, Config{})
				js, err := json.Marshal(d)
				if err != nil {
					t.Fatalf("%s/%s/%s: marshal: %v", p.name, c.name, s, err)
				}
				rows = append(rows, goldenRow{
					Plan: p.name, Catalog: c.name, Strategy: s.String(), Decision: js,
					GenericBits: math.Float64bits(d.GenericCost), ReductionBits: math.Float64bits(d.ReductionCost),
				})
			}
		}
	}
	// One row per line, so a moved decision reads as a one-line diff.
	got := []byte("[\n")
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal row: %v", err)
		}
		if i > 0 {
			got = append(got, ",\n"...)
		}
		got = append(got, line...)
	}
	got = append(got, "\n]\n"...)

	path := filepath.Join("testdata", "resolve_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden file has %d lines, the planner gives %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("line %d differs:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatal("decisions differ from testdata/resolve_golden.json")
}

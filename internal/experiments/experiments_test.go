package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestSlope(t *testing.T) {
	// y = x^2 exactly → slope 2.
	xs := []float64{1, 2, 4, 8}
	ys := []float64{1, 4, 16, 64}
	if got := slope(xs, ys); got < 1.99 || got > 2.01 {
		t.Errorf("slope = %v, want 2", got)
	}
	// Constant y → slope 0.
	if got := slope(xs, []float64{5, 5, 5, 5}); got < -0.01 || got > 0.01 {
		t.Errorf("slope = %v, want 0", got)
	}
	// Degenerate single point.
	if got := slope([]float64{2}, []float64{3}); got != 0 {
		t.Errorf("degenerate slope = %v", got)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := &Table{
		ID: "EX", Title: "demo", Claim: "c",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"note"},
	}
	md := tb.Markdown()
	for _, want := range []string{"### EX", "| a | b |", "| 1 | 2 |", "note"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// Each experiment must run and produce a plausible table. Use small seeds;
// keep the slow ones under -short control.
func TestExperimentsRun(t *testing.T) {
	fast := map[string]func() *Table{
		"E1":  func() *Table { return E1(1) },
		"E1b": func() *Table { return E1b(1) },
		"E4":  func() *Table { return E4(1) },
		"E7":  func() *Table { return E7() },
		"E8":  func() *Table { return E8(1) },
		"E9":  func() *Table { return E9(1) },
		"E10": func() *Table { return E10(1) },
		"E11": func() *Table { return E11(1) },
		"E12": func() *Table { return E12(1) },
		"A1":  func() *Table { return AblationStrategies(1) },
		"A2":  func() *Table { return AblationCQEval(1) },
		"A3":  func() *Table { return AblationTreewidth() },
	}
	for name, fn := range fast {
		tb := fn()
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", name)
		}
		for _, r := range tb.Rows {
			if len(r) != len(tb.Headers) {
				t.Errorf("%s: row width %d ≠ headers %d", name, len(r), len(tb.Headers))
			}
		}
	}
}

func TestSlowExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping slow regime experiments in -short mode")
	}
	for name, fn := range map[string]func() *Table{
		"E2": func() *Table { return E2(1) },
		"E3": func() *Table { return E3(1) },
		"E5": func() *Table { return E5(1) },
		"E6": func() *Table { return E6(1) },
	} {
		tb := fn()
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", name)
		}
	}
}

// TestStageAttributionShape runs A8 and sanity-checks the attribution:
// rows are well-formed, shares are percentages, and on the E3 row the
// merge and product-walk stages account for the bulk of the time (the
// PSPACE regime's predicted cost driver). Under the generic strategy the
// witness stage is a product walk too — the winning traversal re-run with
// parent links recorded — so it counts. The threshold here is deliberately
// looser than the ≥80% recorded in EXPERIMENTS.md to keep the test
// robust on slow or heavily loaded hosts.
func TestStageAttributionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping traced attribution in -short mode")
	}
	tb := StageAttribution(1)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if len(r) != len(tb.Headers) {
			t.Fatalf("row width %d ≠ headers %d", len(r), len(tb.Headers))
		}
		sum := 0.0
		for _, cell := range r[3:] {
			var pct float64
			if _, err := fmt.Sscan(cell, &pct); err != nil {
				t.Fatalf("share cell %q: %v", cell, err)
			}
			if pct < 0 || pct > 100.01 {
				t.Errorf("share %v out of range", pct)
			}
			sum += pct
		}
		if sum > 100.5 {
			t.Errorf("%s: shares sum to %.1f%% > 100%%", r[0], sum)
		}
	}
	// E3 row: prepare+merge % (col 3) + product % (col 4) + witness % (col 7) dominate.
	var mergePct, productPct, witnessPct float64
	fmt.Sscan(tb.Rows[1][3], &mergePct)
	fmt.Sscan(tb.Rows[1][4], &productPct)
	fmt.Sscan(tb.Rows[1][7], &witnessPct)
	if mergePct+productPct+witnessPct < 50 {
		t.Errorf("E3 merge+product+witness share = %.1f%%, expected the dominant stages", mergePct+productPct+witnessPct)
	}
}

func TestE7MergeGrowthShape(t *testing.T) {
	tb := E7()
	// Merged states must be nondecreasing in ℓ and ≤ 3^ℓ.
	prev := 0
	pow := 1
	for i, r := range tb.Rows {
		var st int
		if _, err := fmt.Sscan(r[2], &st); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		pow *= 3
		if st < prev {
			t.Errorf("merged states decreased: %d after %d", st, prev)
		}
		if st > pow {
			t.Errorf("merged states %d exceed 3^%d", st, i+1)
		}
		prev = st
	}
}

func TestAblationBaselineRuns(t *testing.T) {
	tb := AblationBaseline(1)
	if len(tb.Rows) != 3 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

// TestE8ExponentShape: the split fan's fitted CQ-tuple exponent rises with
// its track count — R' over 2t distinct variables — while the fan's, whose
// tracks share their endpoints, stays that of its two variables.
func TestE8ExponentShape(t *testing.T) {
	tb := E8(1)
	exps := map[string][]float64{}
	for _, r := range tb.Rows {
		var e float64
		if _, err := fmt.Sscan(r[2], &e); err != nil {
			t.Fatalf("exponent cell %q: %v", r[2], err)
		}
		exps[r[0]] = append(exps[r[0]], e)
	}
	split, fan := exps["split fan"], exps["fan"]
	if len(split) != 3 || len(fan) != 3 {
		t.Fatalf("rows per shape: split fan %d, fan %d, want 3 each (t = 1, 2, 3)", len(split), len(fan))
	}
	for i := 1; i < len(split); i++ {
		if split[i] <= split[i-1]+0.5 {
			t.Errorf("split fan exponents %v do not rise with t", split)
		}
	}
	for i, e := range fan {
		if e > 2.5 {
			t.Errorf("fan t=%d: exponent %.2f, want ≤ 2.5 (two node variables)", i+1, e)
		}
	}
}

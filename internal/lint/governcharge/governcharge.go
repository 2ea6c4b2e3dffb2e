// Package governcharge implements the governcharge analyzer: every
// hot-path allocation in the evaluation engine (internal/core,
// internal/cq) must be visible to the resource governor's byte ledger.
//
// A hot-path allocation is a make/append/map-literal site lexically
// inside a loop. The enclosing function is compliant when it charges the
// ledger itself (a govern Meter/Reservation/Broker Charge/Grow/Reserve/
// TryAcquire call, or invoking a cq.ChargeFunc), when some function it
// calls — directly or transitively, through the module call graph —
// charges, or when it is annotated //ecrpq:charged (for allocations
// whose size is bounded by construction or accounted by the caller).
package governcharge

import (
	"strings"

	"ecrpq/internal/lint"
)

// Analyzer is the governcharge check.
var Analyzer = &lint.Analyzer{Name: "governcharge", Run: run}

func inScope(path string) bool {
	return strings.Contains(path, "internal/core") ||
		strings.Contains(path, "internal/cq") ||
		strings.Contains(path, "/testdata/")
}

func run(pass *lint.ModulePass) {
	for _, node := range pass.Graph.Funcs() {
		if !inScope(node.Pkg.Path) {
			continue
		}
		var hot []lint.AllocSite
		for _, site := range node.Summary.Allocs {
			if site.InLoop {
				hot = append(hot, site)
			}
		}
		if len(hot) == 0 {
			continue
		}
		if lint.HasDirective(node.Decl.Doc, "charged") {
			continue
		}
		if pass.Graph.Charges(node.Func) {
			continue
		}
		for _, site := range hot {
			pass.Reportf(site.Pos, "%s in a loop of %s is not charged to the govern ledger (charge a govern.Meter, call a charging helper, or annotate the function //ecrpq:charged <reason>)",
				site.Kind, node.Func.Name())
		}
	}
}

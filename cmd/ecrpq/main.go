// Command ecrpq evaluates an ECRPQ query against a graph database.
//
// Usage:
//
//	ecrpq -db graph.txt -query query.txt [-strategy auto|generic|reduction]
//	      [-witness] [-timeout 30s] [-trace out.json]
//
// The database format is one labelled edge per line after an alphabet
// header; the query format is the DSL of internal/query (see README.md).
// With free variables the answer set is printed, one tuple per line;
// otherwise the Boolean verdict (and, with -witness, the witness paths).
//
// With -trace the evaluation is traced end to end and a Chrome
// trace_event dump is written to the given file (load it at
// chrome://tracing or https://ui.perfetto.dev); a per-stage self-time
// breakdown is printed to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ecrpq"
	"ecrpq/internal/planner"
	"ecrpq/internal/stats"
	"ecrpq/internal/trace"
)

func main() {
	dbPath := flag.String("db", "", "graph database file")
	queryPath := flag.String("query", "", "query file")
	strategy := flag.String("strategy", "auto", "evaluation strategy: auto, generic, reduction")
	witness := flag.Bool("witness", false, "print the witness assignment and paths")
	relFiles := flag.String("rel", "", "comma-separated custom relation files (synchro text format); atom names resolve against these before built-ins")
	timeout := flag.Duration("timeout", 0, "abort evaluation after this long (0 = no limit)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event dump of the evaluation to this file")
	explain := flag.Bool("explain", false, "print the cost-based plan (database statistics + planner decision) and, after evaluating, the measured per-stage times next to the estimates")
	flag.Parse()
	if *dbPath == "" || *queryPath == "" {
		fmt.Fprintln(os.Stderr, "usage: ecrpq -db <file> -query <file> [-strategy auto|generic|reduction] [-witness] [-explain] [-rel r1.txt,r2.txt] [-trace out.json]")
		os.Exit(2)
	}
	if err := run(*dbPath, *queryPath, *strategy, *witness, *explain, *relFiles, *timeout, *traceOut); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "ecrpq: evaluation exceeded the", *timeout, "timeout")
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "ecrpq:", err)
		os.Exit(1)
	}
}

func loadRelations(relFiles string) (map[string]*ecrpq.Relation, error) {
	registry := make(map[string]*ecrpq.Relation)
	if relFiles == "" {
		return registry, nil
	}
	for _, path := range strings.Split(relFiles, ",") {
		f, err := os.Open(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		rel, err := ecrpq.ParseRelation(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		if rel.Name() == "" {
			return nil, fmt.Errorf("%s: relation has no name", path)
		}
		registry[rel.Name()] = rel
	}
	return registry, nil
}

// writeTrace finishes tr, dumps it in Chrome trace_event format to path,
// and prints the per-stage self-time breakdown to stderr.
func writeTrace(tr *trace.Trace, path string) error {
	tr.Finish()
	data := tr.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, data); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %d span(s) over %.2f ms written to %s\n", len(data.Spans), data.DurMs, path)
	total := data.DurMs * 1000
	for _, st := range data.Breakdown() {
		pct := 0.0
		if total > 0 {
			pct = 100 * st.SelfUs / total
		}
		fmt.Fprintf(os.Stderr, "  %-22s x%-4d self %8.0f us  (%5.1f%%)\n", st.Name, st.Count, st.SelfUs, pct)
	}
	return nil
}

// printExplain computes the database's statistics catalog, runs the
// cost-based planner on the query, prints the decision with per-stage
// estimates, and returns the decision so the caller can evaluate with
// the planner's strategy. Mirrors the daemon's POST /v1/explain for the
// offline CLI.
func printExplain(ctx context.Context, db *ecrpq.DB, q *ecrpq.Query, opts ecrpq.Options) (*planner.Decision, error) {
	cat, err := stats.Compute(ctx, db, 1)
	if err != nil {
		return nil, fmt.Errorf("computing statistics: %v", err)
	}
	plan, err := ecrpq.Explain(q, opts)
	if err != nil {
		return nil, err
	}
	dec := planner.Resolve(cat, plan, opts, planner.Config{})
	source := "planner"
	if opts.Strategy != ecrpq.Auto {
		source = "requested"
	} else if dec.UsedFallback {
		source = "fixed-rule"
	}
	fmt.Printf("strategy: %s (%s)\n", dec.Strategy, source)
	plan.Strategy = dec.Strategy // render the resolved strategy, not "auto"
	fmt.Print(plan.String())
	fmt.Printf("costs: generic=%.0f reduction=%.0f (|V|=%d, any-reach selectivity %.4f)\n",
		dec.GenericCost, dec.ReductionCost, cat.Vertices, cat.AnyReachSelectivity)
	for _, st := range dec.Stages {
		fmt.Printf("  %-22s cost %12.0f  est %8.3f ms\n", st.Stage, st.Cost, st.EstimatedMs)
		if st.Detail != "" {
			fmt.Printf("    %s\n", st.Detail)
		}
	}
	return dec, nil
}

// printActuals prints the traced per-stage self-times next to the
// planner's estimates after an explained evaluation.
func printActuals(dec *planner.Decision, data trace.TraceData) {
	selfMs := make(map[string]float64)
	for _, st := range data.Breakdown() {
		if strings.HasPrefix(st.Name, "core/") {
			selfMs[st.Name] = st.SelfUs / 1000
		}
	}
	fmt.Println("measured (estimate vs actual):")
	seen := make(map[string]bool)
	for _, st := range dec.Stages {
		seen[st.Stage] = true
		if ms, ok := selfMs[st.Stage]; ok {
			fmt.Printf("  %-22s est %8.3f ms  actual %8.3f ms\n", st.Stage, st.EstimatedMs, ms)
		} else {
			fmt.Printf("  %-22s est %8.3f ms  actual        - (stage did not run)\n", st.Stage, st.EstimatedMs)
		}
	}
	var extra []string
	for name := range selfMs {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("  %-22s est        -     actual %8.3f ms\n", name, selfMs[name])
	}
}

func run(dbPath, queryPath, strategy string, witness, explain bool, relFiles string, timeout time.Duration, traceOut string) error {
	dbFile, err := os.Open(dbPath)
	if err != nil {
		return err
	}
	defer dbFile.Close()
	db, err := ecrpq.ReadDB(dbFile)
	if err != nil {
		return err
	}
	registry, err := loadRelations(relFiles)
	if err != nil {
		return err
	}
	qFile, err := os.Open(queryPath)
	if err != nil {
		return err
	}
	defer qFile.Close()
	q, err := ecrpq.ParseQueryWithRelations(qFile, registry)
	if err != nil {
		return err
	}
	var opts ecrpq.Options
	switch strategy {
	case "auto":
		opts.Strategy = ecrpq.Auto
	case "generic":
		opts.Strategy = ecrpq.Generic
	case "reduction":
		opts.Strategy = ecrpq.Reduction
	default:
		return fmt.Errorf("unknown strategy %q", strategy)
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// -explain needs a trace even without -trace: the measured per-stage
	// times printed next to the estimates come from it.
	var tr *trace.Trace
	if traceOut != "" || explain {
		tr = trace.New("ecrpq")
		tr.SetStr("db", dbPath)
		tr.SetStr("query", queryPath)
		tr.SetStr("strategy_requested", strategy)
		ctx = trace.NewContext(ctx, tr)
		if traceOut != "" {
			defer func() {
				if werr := writeTrace(tr, traceOut); werr != nil {
					fmt.Fprintln(os.Stderr, "ecrpq: writing trace:", werr)
				}
			}()
		}
	}

	if explain {
		dec, err := printExplain(ctx, db, q, opts)
		if err != nil {
			return err
		}
		// Evaluate with the planner's choice so the measured times belong
		// to the plan just printed.
		opts.Strategy = dec.Strategy
		defer func() {
			tr.Finish()
			printActuals(dec, tr.Snapshot())
		}()
	}

	if len(q.Free) > 0 {
		answers, err := ecrpq.AnswersContext(ctx, db, q, opts)
		if err != nil {
			return err
		}
		fmt.Printf("answers(%s): %d tuple(s)\n", strings.Join(q.Free, ", "), len(answers))
		for _, tup := range answers {
			parts := make([]string, len(tup))
			for i, v := range tup {
				parts[i] = db.VertexName(v)
			}
			fmt.Println("  (" + strings.Join(parts, ", ") + ")")
		}
		return nil
	}

	res, err := ecrpq.EvaluateContext(ctx, db, q, opts)
	if err != nil {
		return err
	}
	if !res.Sat {
		fmt.Println("false")
		return nil
	}
	fmt.Println("true")
	if witness {
		if err := ecrpq.VerifyWitness(db, q, res); err != nil {
			return fmt.Errorf("internal: witness failed verification: %v", err)
		}
		var nodeVars []string
		for v := range res.Nodes {
			nodeVars = append(nodeVars, v)
		}
		sort.Strings(nodeVars)
		for _, v := range nodeVars {
			fmt.Printf("  %s = %s\n", v, db.VertexName(res.Nodes[v]))
		}
		var pathVars []string
		for p := range res.Paths {
			pathVars = append(pathVars, p)
		}
		sort.Strings(pathVars)
		for _, p := range pathVars {
			fmt.Printf("  %s: %s\n", p, res.Paths[p].Format(db))
		}
	}
	return nil
}

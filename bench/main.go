// Command bench is the repository benchmark: it boots an in-process ecrpqd
// behind a loopback listener, replays a seeded request stream against it
// from a closed loop of 2 keep-alive clients, checks every response
// against the library API, and prints the metrics BENCHMARK.json names.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: all four, one result line each)")
	seed := flag.Int64("seed", 1, "stream seed: request order, renamings, edge shuffles, Zipf draws")
	seconds := flag.Float64("seconds", 24, "measured wall time")
	traced := flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	traceOut := flag.String("trace-out", "", "traced run: write the spans as JSON to this file")
	scratch := flag.String("scratch", ".bench_build/tmp", "directory for the persist store's temp dirs")
	flag.Parse()

	names := workloadNames
	if *workloadName != "" {
		names = []string{*workloadName}
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	ok := true
	for _, name := range names {
		var rep *report
		var err error
		if *traced != 0 {
			rep, err = runTraced(name, *seed, *seconds, *scratch, *traceOut)
		} else {
			rep, err = runMeasured(name, *seed, *seconds, *scratch)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		printReport(name, rep)
		ok = ok && rep.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// printReport prints every metric by name and unit, then the result object
// on a line of its own.
func printReport(name string, rep *report) {
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := rep.Metrics[k]
		fmt.Printf("  %-34s %14.4f %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("  %-34s %14d\n  %-34s %14d\n", "ops_attempted", rep.Attempted, "ops_failed", rep.Failed)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Printf("%s\n", line)
}

// Command ecrpq-lint is the repository's custom static-analysis suite: a
// multichecker over the analyzers in internal/lint.
//
//	ecrpq-lint [-list] [-json] [-only a,b] [packages...]
//
// loads the named packages (default ./...) from source and prints
// findings as file:line:col: [analyzer] message, exiting 1 if any.
//
// Suppress an individual finding with a trailing or preceding comment:
//
//	//ecrpq:ignore <analyzer>[,<analyzer>] -- reason
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ecrpq/internal/lint"
	"ecrpq/internal/lint/alphabetguard"
	"ecrpq/internal/lint/boundedrun"
	"ecrpq/internal/lint/ctxpoll"
	"ecrpq/internal/lint/errcheckstrict"
	"ecrpq/internal/lint/governcharge"
	"ecrpq/internal/lint/lockorder"
	"ecrpq/internal/lint/panicfree"
	"ecrpq/internal/lint/spanend"
	"ecrpq/internal/lint/statebounds"
)

// analyzers is the full suite, in reporting order: the per-package
// checks first, then the module-wide dataflow checks.
var analyzers = []*lint.Analyzer{
	panicfree.Analyzer,
	alphabetguard.Analyzer,
	statebounds.Analyzer,
	boundedrun.Analyzer,
	errcheckstrict.Analyzer,
	spanend.Analyzer,
	lockorder.Analyzer,
	governcharge.Analyzer,
	ctxpoll.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the machine-readable form of one finding, emitted by
// -json for CI inline annotations.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ecrpq-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	asJSON := fs.Bool("json", false, "write findings as a JSON array to stdout (plain findings still go to stderr)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ecrpq-lint [-list] [-json] [-only a,b] [packages...]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, doc)
		}
		return 0
	}
	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	broken := 0
	for _, pkg := range pkgs {
		for _, perr := range pkg.Errors {
			fmt.Fprintf(stderr, "%s: %v\n", pkg.Path, perr)
			broken++
		}
	}
	if broken > 0 {
		fmt.Fprintf(stderr, "ecrpq-lint: %d load error(s); fix the build first\n", broken)
		return 2
	}
	findings, err := lint.RunAnalyzers(pkgs, selected)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *asJSON {
		// JSON goes to stdout for tooling; the plain findings go to
		// stderr so a CI problem matcher scanning the step log still sees
		// them. relativize keeps the paths repo-relative, which is what
		// inline annotations need.
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     relativize(f.Position.Filename),
				Line:     f.Position.Line,
				Column:   f.Position.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		for _, f := range findings {
			f.Position.Filename = relativize(f.Position.Filename)
			fmt.Fprintln(stderr, f)
		}
	} else {
		for _, f := range findings {
			f.Position.Filename = relativize(f.Position.Filename)
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "ecrpq-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// relativize maps an absolute finding path under the working directory
// to a relative one; paths elsewhere are returned unchanged.
func relativize(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}

// selectAnalyzers resolves the -only flag against the suite.
func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	byName := make(map[string]*lint.Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("ecrpq-lint: unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

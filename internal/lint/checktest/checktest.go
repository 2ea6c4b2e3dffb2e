// Package checktest runs a lint.Analyzer over fixture packages under
// testdata/src and checks its diagnostics against // want comments, in
// the style of golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line is annotated with one or more expectations:
//
//	for len(queue) > 0 { // want `never polls the context`
//
// Each expectation is a quoted regular expression that must match the
// message of exactly one diagnostic reported on that line. Diagnostics
// with no matching expectation, and expectations with no matching
// diagnostic, fail the test. A fixture package without any want comments
// asserts the analyzer stays silent on it.
package checktest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ecrpq/internal/lint"
)

// wantRE matches the trailing "// want ..." marker of a fixture line.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads each named fixture from dir/testdata/src/<name>, applies
// the analyzer, and reports mismatches between diagnostics and want
// comments as test errors.
//
// A fixture is usually one package, but may be a tree: subdirectories
// of the fixture directory load as additional packages, all analyzed
// together in one session — the way module-wide analyzers (lockorder,
// governcharge, ctxpoll) see real code. Fixture packages may import
// each other by their full module path, and may import real module
// packages (e.g. ecrpq/internal/govern).
func Run(t *testing.T, dir string, a *lint.Analyzer, fixtures ...string) {
	t.Helper()
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatalf("checktest: %v", err)
	}
	for _, fixture := range fixtures {
		pkgdir := filepath.Join(dir, "testdata", "src", fixture)
		pkgs, err := loader.Load(pkgdir + "/...")
		if err != nil {
			t.Errorf("checktest: loading %s: %v", fixture, err)
			continue
		}
		var expects []*expectation
		for _, pkg := range pkgs {
			for _, perr := range pkg.Errors {
				t.Errorf("checktest: fixture %s does not type-check: %v", fixture, perr)
			}
			ex, err := collectExpectations(pkg)
			if err != nil {
				t.Errorf("checktest: fixture %s: %v", fixture, err)
				continue
			}
			expects = append(expects, ex...)
		}
		for _, f := range lint.RunAnalyzers(pkgs, []*lint.Analyzer{a}) {
			if !claim(expects, f) {
				t.Errorf("%s: unexpected diagnostic: %s", fixture, f)
			}
		}
		for _, e := range expects {
			if !e.matched {
				t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none",
					fixture, filepath.Base(e.file), e.line, e.pattern)
			}
		}
	}
}

// claim marks the first unmatched expectation satisfied by f.
func claim(expects []*expectation, f lint.Finding) bool {
	for _, e := range expects {
		if e.matched || e.line != f.Position.Line || e.file != f.Position.Filename {
			continue
		}
		if e.pattern.MatchString(f.Message) {
			e.matched = true
			return true
		}
	}
	return false
}

// collectExpectations scans the fixture's comments for want markers.
func collectExpectations(pkg *lint.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := parsePatterns(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				for _, p := range patterns {
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: p})
				}
			}
		}
	}
	return out, nil
}

// parsePatterns splits `"rx1" "rx2"` (double- or back-quoted) into
// compiled regexps.
func parsePatterns(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("want pattern must be quoted, got %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern %q", s)
		}
		raw := s[:end+2]
		text, err := strconv.Unquote(raw)
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %s: %v", raw, err)
		}
		rx, err := regexp.Compile(text)
		if err != nil {
			return nil, fmt.Errorf("want pattern %s: %v", raw, err)
		}
		out = append(out, rx)
		s = strings.TrimSpace(s[end+2:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want comment")
	}
	return out, nil
}

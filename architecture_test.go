package ecrpq_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// An archRule is one structural invariant of the source tree, checked on the
// syntax of its non-test Go files.
type archRule struct {
	name string
	why  string   // what a violation means
	in   []string // package directories ("dir/..." for the tree below) or files
	skip []string // files the rule does not look at
	// check is called on every node of every file in scope: subject reports
	// a node the rule is about, bad what in it breaks the rule.
	check func(file string, n ast.Node) (subject bool, bad string)
	// violation is a file body (after its package clause) the rule rejects.
	violation string
}

// onlyFrom: the function or method name is called from the listed files
// only. Its declarations and its calls are the rule's subjects.
func onlyFrom(name string, files ...string) func(string, ast.Node) (bool, string) {
	return func(file string, n ast.Node) (bool, string) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			return n.Name.Name == name[strings.LastIndex(name, ".")+1:], ""
		case *ast.CallExpr:
			callee := types.ExprString(n.Fun)
			if callee != name && !strings.HasSuffix(callee, "."+name) {
				return false, ""
			}
			if slices.Contains(files, file) {
				return true, ""
			}
			return true, callee + " called"
		}
		return false, ""
	}
}

// never: no node that render renders as text matches pattern.
func never(render func(ast.Node) (string, bool), pattern string) func(string, ast.Node) (bool, string) {
	re := regexp.MustCompile(pattern)
	return func(_ string, n ast.Node) (bool, string) {
		text, ok := render(n)
		if ok && re.MatchString(text) {
			return true, text
		}
		return ok, ""
	}
}

// as renders the nodes of one type with text, and no other node.
func as[N ast.Node](text func(N) string) func(ast.Node) (string, bool) {
	return func(n ast.Node) (string, bool) {
		m, ok := n.(N)
		if !ok {
			return "", false
		}
		return text(m), true
	}
}

// The renderings never matches against.
var (
	names = func(n ast.Node) (string, bool) { // identifiers and string literals
		switch n := n.(type) {
		case *ast.Ident:
			return n.Name, true
		case *ast.BasicLit:
			return n.Value, n.Kind == token.STRING
		}
		return "", false
	}
	selectors   = as(func(s *ast.SelectorExpr) string { return types.ExprString(s) })
	calls       = as(func(c *ast.CallExpr) string { return types.ExprString(c) }) // "time.After(d)"
	mapTypes    = as(func(m *ast.MapType) string { return types.ExprString(m) })
	comparisons = as(func(b *ast.BinaryExpr) string { return types.ExprString(b) })
	fieldTypes  = as(func(f *ast.Field) string { return types.ExprString(f.Type) })
	funcs       = as(func(d *ast.FuncDecl) string { // "*rowIndex.key" for a method
		if d.Recv != nil {
			return types.ExprString(d.Recv.List[0].Type) + "." + d.Name.Name
		}
		return d.Name.Name
	})
)

var archRules = []archRule{
	// The one evaluation spine: prepare is the only compiler and mergedViews
	// the only Lemma 4.1 merge routine besides Satisfiable's.
	{name: "decompose-callers", why: "a second compiler beside prepare, Explain and Satisfiable",
		in: []string{"internal/core"}, check: onlyFrom("decompose",
			"internal/core/explain.go", "internal/core/prepared.go", "internal/core/satisfiable.go"),
		violation: "func f() { decompose(q) }"},
	{name: "merge-callers", why: "a second Lemma 4.1 merge routine",
		in: []string{"internal/core"}, check: onlyFrom("mergeComponent",
			"internal/core/reduction_build.go", "internal/core/satisfiable.go"),
		violation: "func f() { mergeComponent(c) }"},
	{name: "compile-callers", why: "a join compiled outside prepare",
		in: []string{"internal/core"}, check: onlyFrom("cq.Compile", "internal/core/prepared.go"),
		violation: "func f() { cq.Compile(q) }"},
	{name: "backtrack-callers", why: "the reference evaluator called at run time",
		in: []string{"internal/cq", "internal/core"}, check: onlyFrom("EvalBacktrack", "internal/cq/eval.go"),
		violation: "func f() { cq.EvalBacktrack(ctx, s, q) }"},
	// The one write pipeline: every register and drop is Server.install or
	// Server.remove, and periodic work is a body handed to cluster.Loops.
	{name: "install-callers", why: "a registry install outside Server.install",
		in: []string{"internal/server"}, check: onlyFrom("dbs.install", "internal/server/write.go"),
		violation: "func f() { s.dbs.install(e) }"},
	{name: "remove-callers", why: "a registry remove outside Server.remove",
		in: []string{"internal/server"}, check: onlyFrom("dbs.remove", "internal/server/write.go"),
		violation: "func f() { s.dbs.remove(name) }"},
	{name: "timers", why: "a timer outside the loop runner",
		in: []string{"internal/server/...", "internal/cluster"}, skip: []string{"internal/cluster/loop.go"},
		check:     never(calls, `^time\.(NewTimer|NewTicker|Tick|After|AfterFunc)\(`),
		violation: "func f() { <-time.After(d) }"},
	// The Lemma 4.2 product search: one kernel (fastproduct.go) over the
	// layout the database owns, its tables flat and sized by what it meets.
	{name: "one-product-kernel", why: "a second product engine, a per-evaluation adjacency table or a guessed entry size",
		in:        []string{"internal/core"},
		check:     never(names, `productSearch|productState|sweepUnpacked|buildAdjacency|fastStateMapBytes`),
		violation: "func buildAdjacency() {}"},
	{name: "no-map-kernel-table", why: "a map-backed kernel table",
		in: []string{"internal/core"}, check: never(mapTypes, `^map\[uint64\]`),
		violation: "var seen map[uint64]int32"},
	{name: "no-stored-letters", why: "stored witness letters: the witness is read off the search",
		in: []string{"internal/core"}, check: never(selectors, `\.letters$`),
		violation: "func f() { _ = k.letters }"},
	{name: "kernel-nil-is-not-yet", why: "a caller asks whether a kernel exists: nil means only not yet built",
		in: []string{"internal/core"}, check: never(comparisons, `\bfp == nil$`),
		violation: "func f() bool { return c.fp == nil }"},
	// Every kernel walks one automaton per component, the Lemma 4.1 merge:
	// no product over several relation automata, and no switch to choose one.
	{name: "one-automaton-per-component", why: "a product over several relation automata or a knob to skip the merge",
		in:        []string{"internal/core"},
		check:     never(names, `^(overRels|radix|acceptState|relStates|nfaViews|EagerMerge)$`),
		violation: "func f(p *productStep) { p.overRels(0) }"},
	{name: "relation-tracks", why: "a relation's own tracks read outside decompose, the merge and the first-letter analysis",
		in: []string{"internal/core"}, skip: []string{"internal/core/component.go", "internal/core/reduction_build.go", "internal/core/pushdown.go"},
		check:     never(names, `^relTracks$`),
		violation: "func f(c *component) int { return len(c.relTracks) }"},
	{name: "nfa-view-callers", why: "an automaton decoded for a kernel other than the merged view's",
		in: []string{"internal/core"}, check: onlyFrom("newNFAView", "internal/core/reduction_build.go"),
		violation: "func f(r *synchro.Relation) { newNFAView(r) }"},
	// The Lemma 4.3 sweep: R' is int32 values back to back from the sweep's
	// emit to the join's scan.
	{name: "rows-no-header", why: "a slice header per row",
		in: []string{"internal/cq/cq.go"}, check: never(fieldTypes, `^\[\]\[\]int$`),
		violation: "type r struct{ rows [][]int }"},
	{name: "rows-int32", why: "the sweep's rows and scratch are int32, not 8 bytes per vertex id",
		in: []string{"internal/core/reduction_build.go"}, check: never(calls, `^make\(\[\]int,`),
		violation: "func f() { _ = make([]int, 4) }"},
	// Plain reachability has no evaluator of its own: a path variable in no
	// non-universal atom is a one-track Σ* component.
	{name: "no-pinned-reduction", why: "the pinned-reduction relations or a free-track evaluator",
		in:        []string{"internal/core"},
		check:     never(names, `__pin_|__reach|freeTrack|anyReach|anyPath|reachStream|reachCache`),
		violation: `var r = "__pin_x"`},
	{name: "planner-no-free-tracks", why: "the planner costs free tracks apart from components",
		in: []string{"internal/planner"}, check: never(names, `FreeTracks`),
		violation: "func f(c Cost) int { return c.FreeTracks }"},
	// A plan decision costs O(query): database facts come from the
	// stats.Catalog computed at registration, never from the graph itself.
	{name: "planner-reads-catalog", why: "the planner reads the database instead of the stats catalog",
		in: []string{"internal/planner"}, check: never(func(n ast.Node) (string, bool) {
			if imp, ok := n.(*ast.ImportSpec); ok {
				return imp.Path.Value, true
			}
			return selectors(n)
		}, `^"ecrpq/internal/(graphdb|persist)"$|^graphdb\.`),
		violation: `import _ "ecrpq/internal/graphdb"`},
	// Enumeration is push iteration: each stage yields to a callback and
	// releases with defer. The one value that must be closed, the pull view
	// *core.Enumeration, is made in one place and opened by one caller.
	{name: "enumerate-callers", why: "an enumeration opened outside the /v1/enumerate page loop",
		in: []string{"internal/core", "internal/server"}, check: onlyFrom("Enumerate", "internal/server/enumerate.go"),
		violation: "func f() { it, _ := p.Enumerate(ctx, db); it.Close() }"},
	{name: "one-pull-boundary", why: "a second pull view of a push walk",
		in: []string{".", "cmd/...", "examples/...", "internal/..."}, check: onlyFrom("iter.Pull", "internal/core/enumerate.go"),
		violation: "func f() { next, stop := iter.Pull(seq) }"},
	{name: "no-pull-combinators", why: "a pull-iterator combinator or state machine beside the push walk",
		in:        []string{"internal/core", "internal/cq", "internal/server"},
		check:     never(names, `^(NestedLoop|HashJoin|Metered|compStream|pinnedEnum)$`),
		violation: "func f() { stream.HashJoin(probe, build, nil, nil, nil) }"},
	// The Prop 2.3 join: one evaluator beside the reference, integer keys.
	{name: "no-candidate-engine", why: "a candidate-guessing answers engine beside the walk",
		in: []string{"internal/cq"}, check: never(names, `^(candidate|cand)$`),
		violation: "func f() { w.candidate(row) }"},
	{name: "join-keys-not-strings", why: "the join builds string keys",
		in: []string{"internal/cq/kernel.go"}, check: never(func(n ast.Node) (string, bool) {
			if text, ok := funcs(n); ok {
				return text, ok
			}
			return mapTypes(n)
		}, `^(key|appendKey)$|^map\[string\]`),
		violation: "func appendKey(b []byte, v int32) []byte { return b }"},
}

// TestArchitecture checks every rule on the tree and on its violation: a
// rule that sees nothing in the tree, or accepts its own violation, proves
// nothing.
func TestArchitecture(t *testing.T) {
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{}
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			subjects := 0
			for _, path := range goFiles(t, r.in...) {
				if slices.Contains(r.skip, path) {
					continue
				}
				f := parsed[path]
				if f == nil {
					var err error
					if f, err = parser.ParseFile(fset, path, nil, 0); err != nil {
						t.Fatal(err)
					}
					parsed[path] = f
				}
				ast.Inspect(f, func(n ast.Node) bool {
					subject, bad := r.check(path, n)
					if subject {
						subjects++
					}
					if bad != "" {
						t.Errorf("%s: %s: %s", fset.Position(n.Pos()), bad, r.why)
					}
					return true
				})
			}
			if subjects == 0 {
				t.Errorf("no subject in %v: the rule is looking at nothing", r.in)
			}
			f, err := parser.ParseFile(fset, "violation.go", "package p\n"+r.violation, 0)
			if err != nil {
				t.Fatal(err)
			}
			rejected := false
			ast.Inspect(f, func(n ast.Node) bool {
				_, bad := r.check("violation.go", n)
				rejected = rejected || bad != ""
				return true
			})
			if !rejected {
				t.Errorf("the rule accepts its violation %q", r.violation)
			}
		})
	}
	t.Run("make-targets", testMakeTargets)
}

// goFiles lists the non-test Go files of the named directories and files,
// relative to the module root.
func goFiles(t *testing.T, in ...string) []string {
	var out []string
	for _, p := range in {
		if strings.HasSuffix(p, ".go") {
			out = append(out, p)
			continue
		}
		root, deep := strings.CutSuffix(p, "/...")
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path != root && (!deep || d.Name() == "testdata"):
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
				out = append(out, filepath.ToSlash(path))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// makeMention finds a `make <target>` in prose: after a backtick, alone on
// a line of a shell block, or any hyphenated target.
var makeMention = regexp.MustCompile("(?m)`make ([a-z][a-z0-9-]*)|^[ \t]*make ([a-z][a-z0-9-]*)[ \t]*(?:#|$)|\\bmake ([a-z0-9]+-[a-z0-9-]+)")

// makeDocs are the documents that tell a reader which make target checks
// what. bench/ is its own module with its own README.
var makeDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// testMakeTargets: every make target the documents or a Go comment name is
// a target of the Makefile.
func testMakeTargets(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	unknown := func(text string) []string {
		var out []string
		for _, m := range makeMention.FindAllStringSubmatch(text, -1) {
			if target := m[1] + m[2] + m[3]; !targets[target] {
				out = append(out, target)
			}
		}
		return out
	}
	texts := map[string]string{}
	for _, doc := range makeDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		texts[doc] = string(b)
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, c := range f.Comments {
			texts[path] += c.Text()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mentions := 0
	for path, text := range texts {
		mentions += len(makeMention.FindAllString(text, -1))
		for _, target := range unknown(text) {
			t.Errorf("%s names `make %s`, which the Makefile does not define", path, target)
		}
	}
	if mentions == 0 {
		t.Error("no make target named anywhere: the rule is looking at nothing")
	}
	if violation := "run `make no-such-gate`"; len(unknown(violation)) == 0 {
		t.Errorf("the rule accepts its violation %q", violation)
	}
}

package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string // import path, e.g. "ecrpq/internal/automata"
	Dir       string // absolute directory
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// Errors holds type-checking problems. Analyzers still run on
	// packages with errors; the caller decides whether they are fatal.
	Errors []error
}

// Loader loads and type-checks packages of the enclosing module from
// source, resolving module-internal imports itself, so one *types.Func
// stands for a module function across every package it loads. It reads
// the standard library from the compiler's export data (the gc importer,
// which asks the go command for it), which is faster than type-checking
// the standard library from source, and needs no module cache or network
// access.
type Loader struct {
	ModulePath string // e.g. "ecrpq"
	ModuleDir  string // absolute root of the module
	Fset       *token.FileSet

	std   types.Importer // export-data importer for the standard library
	cache map[string]*Package
}

// NewLoader locates the module root at or above dir (by finding go.mod)
// and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			modPath := modulePath(string(data))
			if modPath == "" {
				return nil, fmt.Errorf("lint: cannot parse module path from %s/go.mod", root)
			}
			fset := token.NewFileSet()
			return &Loader{
				ModulePath: modPath,
				ModuleDir:  root,
				Fset:       fset,
				std:        importer.ForCompiler(fset, "gc", nil),
				cache:      make(map[string]*Package),
			}, nil
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found at or above %s", abs)
		}
		root = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Load resolves the given patterns ("./...", "./internal/automata", an
// import path, or a directory) into loaded packages, in deterministic
// order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			walked, err := l.walk(l.ModuleDir)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			base := l.resolveDir(strings.TrimSuffix(pat, "/..."))
			walked, err := l.walk(base)
			if err != nil {
				return nil, err
			}
			if len(walked) == 0 {
				return nil, fmt.Errorf("lint: pattern %q matches no Go packages", pat)
			}
			for _, d := range walked {
				add(d)
			}
		default:
			dir := l.resolveDir(pat)
			if len(l.goFiles(dir)) == 0 {
				return nil, fmt.Errorf("lint: pattern %q matches no Go package", pat)
			}
			add(dir)
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// resolveDir maps a pattern to an absolute directory: relative paths and
// absolute paths are used as-is; module-qualified import paths are mapped
// into the module tree.
func (l *Loader) resolveDir(pat string) string {
	if filepath.IsAbs(pat) {
		return filepath.Clean(pat)
	}
	if pat == l.ModulePath {
		return l.ModuleDir
	}
	if rest, ok := strings.CutPrefix(pat, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest))
	}
	abs, err := filepath.Abs(pat)
	if err != nil {
		return pat
	}
	return abs
}

// walk returns every directory under root containing at least one
// non-test .go file, skipping testdata, hidden and vendor trees.
func (l *Loader) walk(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if len(l.goFiles(path)) > 0 {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// goFiles lists the non-test .go files of dir that satisfy the default
// build constraints, sorted. Constraint evaluation (go/build.MatchFile
// reads //go:build lines and GOOS/GOARCH suffixes) keeps the loader's
// view of a package identical to `go build`'s — without it, mutually
// exclusive tag-gated files (e.g. the faultinject enabled/disabled pair)
// would both load and redeclare each other's symbols.
func (l *Loader) goFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files
}

// importPathFor maps an absolute directory inside the module to its
// import path; directories outside the module use their base name.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.Base(dir)
	}
	if rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// loadDir parses and type-checks the package in dir (nil if it holds no
// non-test Go files).
func (l *Loader) loadDir(dir string) (*Package, error) {
	path := l.importPathFor(dir)
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	files := l.goFiles(dir)
	if len(files) == 0 {
		return nil, nil
	}
	asts, errs := l.parse(files)
	pkg := l.check(path, dir, asts, errs, nil)
	l.cache[path] = pkg
	return pkg, nil
}

// LoadTests type-checks the test files of the package in dir as go test
// builds them: the internal tests with the package's own files, the
// external tests against that test variant. It returns a Package per
// variant with test files, whose Files are those test files.
func (l *Loader) LoadTests(dir string) ([]*Package, error) {
	base, err := l.loadDir(dir)
	if err != nil || base == nil || base.Types == nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, "_test.go") {
			if ok, err := build.Default.MatchFile(dir, name); err == nil && ok {
				files = append(files, filepath.Join(dir, name))
			}
		}
	}
	asts, errs := l.parse(files)
	var internal, external []*ast.File
	for _, f := range asts {
		if f.Name.Name == base.Types.Name() {
			internal = append(internal, f)
		} else {
			external = append(external, f)
		}
	}
	var out []*Package
	variant := base.Types
	if len(internal) > 0 {
		pkg := l.check(base.Path, dir, append(append([]*ast.File{}, base.Files...), internal...), errs, nil)
		pkg.Files, variant, errs = internal, pkg.Types, nil
		out = append(out, pkg)
	}
	if len(external) > 0 {
		out = append(out, l.check(base.Path+"_test", dir, external, errs, variant))
	}
	return out, nil
}

// parse parses files, collecting the errors.
func (l *Loader) parse(files []string) (asts []*ast.File, errs []error) {
	for _, f := range files {
		af, err := parser.ParseFile(l.Fset, f, nil, parser.ParseComments)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		asts = append(asts, af)
	}
	return asts, errs
}

// check type-checks asts as the package path in dir. An external test
// package imports self, the variant of the package under test that its
// internal tests are part of.
func (l *Loader) check(path, dir string, asts []*ast.File, errs []error, self *types.Package) *Package {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: &moduleImporter{l: l, self: self},
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, asts, info) // errors collected via conf.Error
	return &Package{
		Path:      path,
		Dir:       dir,
		Fset:      l.Fset,
		Files:     asts,
		Types:     tpkg,
		TypesInfo: info,
		Errors:    errs,
	}
}

// moduleImporter resolves module-internal import paths from source and
// falls back to the standard library's export data for everything else.
type moduleImporter struct {
	l    *Loader
	self *types.Package // what the package under test's own path resolves to, for its external tests
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := m.l
	if m.self != nil && path == m.self.Path() {
		return m.self, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.loadDir(l.resolveDir(path))
		if err != nil {
			return nil, err
		}
		if pkg == nil || pkg.Types == nil {
			return nil, fmt.Errorf("lint: cannot load %s", path)
		}
		if len(pkg.Errors) > 0 {
			return pkg.Types, fmt.Errorf("lint: %s has %d type errors", path, len(pkg.Errors))
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

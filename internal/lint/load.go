package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the import path ("diestack/internal/thermal").
	Path string
	// Dir is the absolute source directory.
	Dir string
	// Files are the parsed non-test sources, in filename order.
	Files []*ast.File
	// Types and Info are the type-checked package and its facts.
	Types *types.Package
	Info  *types.Info
}

// Program is a loaded module subtree ready for analysis.
type Program struct {
	// Fset positions every parsed file.
	Fset *token.FileSet
	// Module is the module path from go.mod.
	Module string
	// Root is the module root directory.
	Root string
	// Packages are the packages selected by the load patterns.
	Packages []*Package
}

// loader resolves imports: module-internal paths from source, the
// standard library through the gc importer with a source-importer
// fallback (newer toolchains do not ship pre-compiled export data for
// every platform).
type loader struct {
	fset    *token.FileSet
	module  string
	root    string
	gc      types.Importer
	src     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
	std     map[string]*types.Package
	errs    []error
}

// importerFunc adapts a closure to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Load parses and type-checks the packages under root selected by
// patterns ("./...", "./internal/...", "./cmd/stacklint"). Test files
// and testdata trees are excluded: the suite checks shipped simulator
// code, and fixtures deliberately violate the invariants.
func Load(root string, patterns ...string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	l := &loader{
		fset:    token.NewFileSet(),
		module:  module,
		root:    root,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
		std:     map[string]*types.Package{},
	}
	l.gc = importer.Default()
	l.src = importer.ForCompiler(l.fset, "source", nil)

	dirs, err := l.discover(patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("lint: no packages match %v under %s", patterns, root)
	}

	prog := &Program{Fset: l.fset, Module: module, Root: root}
	for _, dir := range dirs {
		pkg, err := l.load(l.importPathFor(dir))
		if err != nil {
			l.errs = append(l.errs, err)
			continue
		}
		if pkg != nil {
			prog.Packages = append(prog.Packages, pkg)
		}
	}
	if len(l.errs) > 0 {
		msgs := make([]string, 0, len(l.errs))
		for _, e := range l.errs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: load failed:\n%s", strings.Join(msgs, "\n"))
	}
	return prog, nil
}

// modulePath reads the module directive from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// importPathFor maps a source directory to its import path.
func (l *loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

// dirFor maps a module-internal import path to its source directory.
func (l *loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
}

// discover walks the module tree and returns the directories holding at
// least one non-test Go file that match any pattern, in sorted order.
func (l *loader) discover(patterns []string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for _, pat := range patterns {
			if matchPattern(rel, pat) {
				if names, _ := goSources(path); len(names) > 0 {
					dirs = append(dirs, path)
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// matchPattern reports whether the slash-separated module-relative
// directory rel matches a go-style pattern.
func matchPattern(rel, pat string) bool {
	pat = strings.TrimPrefix(pat, "./")
	if pat == "" {
		pat = "."
	}
	if pat == "..." {
		return true
	}
	if suffix, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == suffix || strings.HasPrefix(rel, suffix+"/")
	}
	return rel == pat
}

// goSources lists the non-test .go files in dir, sorted.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// load parses and type-checks one module-internal package, memoized.
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var terrs []error
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(terrs) > 0 {
		msgs := make([]string, 0, len(terrs))
		for _, e := range terrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type-checking %s:\n%s", path, strings.Join(msgs, "\n"))
	}

	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// importPkg resolves one import for the type checker.
func (l *loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if pkg, ok := l.std[path]; ok {
		return pkg, nil
	}
	pkg, err := l.gc.Import(path)
	if err != nil {
		pkg, err = l.src.Import(path)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: importing %s: %w", path, err)
	}
	l.std[path] = pkg
	return pkg, nil
}

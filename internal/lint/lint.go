// Package lint is the repo's static-analysis suite: a small,
// standard-library-only analyzer framework (go/ast + go/parser +
// go/types) plus the repo-specific analyzers that turn the simulator's
// conventions into machine-checked invariants: context-first APIs
// (ctxfirst), deterministic simulation packages (determinism), and a
// stable canon wire surface (wirestable). Each catches a defect that
// no test, go vet or -race catches. Allocation-free hot paths, lock
// discipline and goroutine lifetimes are pinned by runtime tests in
// their own packages, not here.
//
// The framework deliberately mirrors the shape of
// golang.org/x/tools/go/analysis without depending on it: an Analyzer
// is a named Run function over a type-checked package, diagnostics
// carry token positions, and fixtures under testdata/ are checked
// against `// want "regexp"` comments by the expectation runner in
// expect.go. cmd/stacklint is the CLI driver; verify.sh and CI run it
// before the build so invariant violations fail fast.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"diestack/internal/fanout"
)

// Diagnostic is one finding, positioned in the source tree.
type Diagnostic struct {
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string `json:"analyzer"`
	// Pos locates the finding (file, line, column).
	Pos token.Position `json:"-"`
	// Position is Pos rendered "file:line:col" for JSON output.
	Position string `json:"position"`
	// Message states the violated invariant.
	Message string `json:"message"`
}

// String renders the diagnostic the way compilers do.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -json output.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries everything an analyzer needs to inspect one package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Prog is the whole loaded program.
	Prog *Program
	// Pkg is the package under analysis.
	Pkg *Package

	diags *[]Diagnostic
}

// Fset returns the program-wide file set.
func (p *Pass) Fset() *token.FileSet { return p.Prog.Fset }

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Types returns the package's type-checked form.
func (p *Pass) Types() *types.Package { return p.Pkg.Types }

// Info returns the package's type-checking facts.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Position: position.String(),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{CtxFirst, Determinism, WireStable}
}

// Analyze applies every analyzer to every package and returns the
// findings sorted by position, analyzer, then message, so output is
// stable across runs, machines, and GOMAXPROCS. Analyzers are pure per
// package, so packages fan out over fanout.ForEach; each package
// appends into its own slot, and the slots concatenate in package
// order before the final total-order sort — the parallel schedule
// cannot leak into the output bytes.
func Analyze(prog *Program, analyzers []*Analyzer) []Diagnostic {
	perPkg := make([][]Diagnostic, len(prog.Packages))
	fanout.ForEach(len(prog.Packages), len(prog.Packages), func(i int) error {
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Prog: prog, Pkg: prog.Packages[i], diags: &perPkg[i]})
		}
		return nil
	})

	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// Package analysis is a self-contained static-analysis framework plus
// the riflint analyzer suite that enforces the simulator's
// determinism, sim-time and observability invariants.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but is built only on the standard
// library so the repository carries no external dependencies: packages
// are loaded with `go list -deps -export -json` and type-checked from
// source against the toolchain's export data (see load.go).
//
// Suppression: a finding can be waived with a directive comment on the
// flagged line or the line directly above it:
//
//	//riflint:allow <category> -- <justification>
//
// where <category> is the Diagnostic.Category of the finding (e.g.
// wallclock, globalrand, maporder, simtime, dupinstrument, rawinstrument,
// seedflow). The justification after "--" is mandatory by convention:
// an allow without a reason should not survive review.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports violations on one package via pass.Report.
	Run func(pass *Pass)
}

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// DeepSim marks packages inside the maporder blast radius: the
	// package transitively imports the sim engine or device model, or
	// feeds output into a package that does. Load derives it from the
	// import graph; the golden harness opts fixtures in.
	DeepSim bool

	allows map[string]map[int][]string // file -> line -> allowed categories
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Category string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one package and collects its
// diagnostics.
type Pass struct {
	*Package
	Analyzer *Analyzer
	// Prog is the whole-load interprocedural view (call graph, hot
	// set). It spans every package of the Run, not just this one.
	Prog *Program

	diags []Diagnostic
}

// Report records a violation at pos unless an //riflint:allow directive
// for the category covers that line.
func (p *Pass) Report(pos token.Pos, category, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.allowed(position, category) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Category: category,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. The suite
// checks shipping code; tests routinely use wall clocks, literal tick
// counts and ad-hoc seeds on purpose.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// allowed reports whether the line at position (or the line above it)
// carries an //riflint:allow directive naming category.
func (p *Pass) allowed(position token.Position, category string) bool {
	lines := p.allows[position.Filename]
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, cat := range lines[line] {
			if cat == category {
				return true
			}
		}
	}
	return false
}

// buildAllows indexes every //riflint:allow directive in the package.
func (pkg *Package) buildAllows() {
	pkg.allows = make(map[string]map[int][]string)
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//riflint:allow")
				if !ok {
					continue
				}
				// Strip the optional "-- reason" tail, then accept a
				// comma- or space-separated category list.
				if i := strings.Index(text, "--"); i >= 0 {
					text = text[:i]
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := pkg.allows[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					pkg.allows[pos.Filename] = byLine
				}
				for _, cat := range strings.FieldsFunc(text, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					byLine[pos.Line] = append(byLine[pos.Line], cat)
				}
			}
		}
	}
}

// Run applies every analyzer to every package and returns the combined
// diagnostics in (file, line, column, analyzer) order. The
// interprocedural Program is built once over the whole load so
// analyzers see cross-package call edges.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := NewProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Package: pkg, Analyzer: a, Prog: prog}
			a.Run(pass)
			diags = append(diags, pass.diags...)
		}
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
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// All returns the full riflint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		SimTime,
		ObsSafe,
		SeedFlow,
		HotPath,
		ErrorFlow,
		CtxFlow,
	}
}

// ByName resolves a comma-separated analyzer list ("" selects all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Names lists the analyzers in the suite.
func Names() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// walkStack traverses the AST calling fn with each node and the stack
// of its ancestors (outermost first, not including n itself). If fn
// returns false the node's children are skipped.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// enclosingFunc returns the innermost function declaration or literal
// on the stack, or nil.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

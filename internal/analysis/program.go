package analysis

// The interprocedural layer: a per-load view of every analyzed
// function, the static call graph between them, and the transitive
// hot set seeded by //riflint:hotpath annotations. All three new
// analyzers (hotpath, errorflow, ctxflow) consult it; the four
// original per-package analyzers ignore it.
//
// The graph is static by construction: an edge exists only where the
// callee is a declared function or method of a package under analysis,
// or a function literal bound exactly once to a local variable
// (`cell := func(...) {...}; ...; cell(i)` — the fleet pool idiom).
// Calls through interfaces, struct fields and reassigned function
// values stay unresolved; the analyzers treat them conservatively
// (hotpath does not follow them, ctxflow counts them as unverified).
// These limits are documented in DESIGN.md §7.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathDirective is the annotation that marks a function as a
// steady-state hot path: it and everything it transitively calls
// within the analyzed packages must be allocation-free.
const HotPathDirective = "//riflint:hotpath"

// FuncInfo is one analyzed function: a declared function/method or a
// function literal bound to a single local variable.
type FuncInfo struct {
	// Obj is the declared function object; nil for bound literals.
	Obj *types.Func
	// Decl is the declaration; nil for bound literals.
	Decl *ast.FuncDecl
	// Lit is the literal for bound-literal entries; nil for
	// declarations.
	Lit *ast.FuncLit
	// Pkg is the package the function was analyzed in.
	Pkg *Package

	// Annotated is true when the declaration itself carries a
	// //riflint:hotpath directive.
	Annotated bool
	// HotVia is the call chain that made this function hot: nil for
	// annotated roots, otherwise the hot caller whose call site pulled
	// this function into the hot set.
	HotVia *FuncInfo

	calls []*FuncInfo
}

// Name renders a human-readable identifier for diagnostics.
func (fi *FuncInfo) Name() string {
	if fi.Obj != nil {
		if recv := fi.Obj.Type().(*types.Signature).Recv(); recv != nil {
			return typeString(recv.Type()) + "." + fi.Obj.Name()
		}
		return fi.Obj.Name()
	}
	return "func literal"
}

// Body returns the function body (nil for bodyless declarations).
func (fi *FuncInfo) Body() *ast.BlockStmt {
	if fi.Decl != nil {
		return fi.Decl.Body
	}
	return fi.Lit.Body
}

// Hot reports whether the function is in the transitive hot set.
func (fi *FuncInfo) Hot() bool { return fi.Annotated || fi.HotVia != nil }

// Root walks HotVia back to the annotated root of a hot function.
func (fi *FuncInfo) Root() *FuncInfo {
	for fi.HotVia != nil {
		fi = fi.HotVia
	}
	return fi
}

// Program is the whole-load view shared by every pass of one Run.
type Program struct {
	Pkgs []*Package

	// funcs indexes declared functions; lits indexes bound literals.
	funcs map[*types.Func]*FuncInfo
	lits  map[*ast.FuncLit]*FuncInfo
	// bindings maps a local variable to the single function literal
	// assigned to it, when that assignment is unique.
	bindings map[types.Object]*ast.FuncLit
}

// NewProgram indexes the packages and builds the call graph and the
// transitive hot set.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:     pkgs,
		funcs:    make(map[*types.Func]*FuncInfo),
		lits:     make(map[*ast.FuncLit]*FuncInfo),
		bindings: make(map[types.Object]*ast.FuncLit),
	}
	for _, pkg := range pkgs {
		p.indexPackage(pkg)
	}
	for _, pkg := range pkgs {
		p.resolveCalls(pkg)
	}
	p.propagateHot()
	return p
}

// indexPackage records every function declaration and every
// single-assignment function-literal binding in pkg.
func (p *Program) indexPackage(pkg *Package) {
	for _, file := range pkg.Syntax {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			p.funcs[obj] = &FuncInfo{
				Obj:       obj,
				Decl:      fd,
				Pkg:       pkg,
				Annotated: hasHotPathDirective(fd),
			}
		}
		p.indexBindings(pkg, file)
	}
}

// indexBindings finds local variables bound to exactly one function
// literal (`x := func(...){...}` or `var x = func...` or a later
// single `x = func...`). A variable assigned function values twice, or
// from anything other than a literal, never resolves.
func (p *Program) indexBindings(pkg *Package, file *ast.File) {
	assigned := make(map[types.Object]int)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pkg.TypesInfo.Defs[id]
		if obj == nil {
			obj = pkg.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		assigned[obj]++
		if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
			p.bindings[obj] = lit
			if p.lits[lit] == nil {
				p.lits[lit] = &FuncInfo{Lit: lit, Pkg: pkg}
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	// Drop bindings whose variable was assigned more than once: the
	// literal on record may not be what actually runs.
	for obj := range p.bindings {
		if assigned[obj] > 1 {
			delete(p.bindings, obj)
		}
	}
}

// resolveCalls fills in each function's static callee list.
func (p *Program) resolveCalls(pkg *Package) {
	for _, file := range pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := p.Callee(pkg, call)
			if callee == nil {
				return true
			}
			if caller := p.enclosing(pkg, call.Pos()); caller != nil && caller != callee {
				caller.calls = append(caller.calls, callee)
			}
			return true
		})
	}
}

// Callee resolves a call expression to an analyzed function: a
// declared function/method of any loaded package, an immediately
// invoked literal, or a single-assignment bound literal. Nil means the
// call is dynamic or leaves the analyzed set.
func (p *Program) Callee(pkg *Package, call *ast.CallExpr) *FuncInfo {
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		if fi := p.lits[lit]; fi != nil {
			return fi
		}
		fi := &FuncInfo{Lit: lit, Pkg: pkg}
		p.lits[lit] = fi
		return fi
	}
	var obj types.Object
	switch e := fun.(type) {
	case *ast.Ident:
		obj = pkg.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		// Method values and interface methods resolve to *types.Func
		// too; only those declared in a loaded package (and therefore
		// indexed with a body) produce an edge, which excludes
		// interface methods automatically.
		obj = pkg.TypesInfo.Uses[e.Sel]
	default:
		return nil
	}
	if fn, ok := obj.(*types.Func); ok {
		return p.funcs[fn]
	}
	if lit, ok := p.bindings[obj]; ok {
		return p.lits[lit]
	}
	return nil
}

// enclosing finds the FuncInfo whose body contains pos (innermost
// bound literal first, then the declaration).
func (p *Program) enclosing(pkg *Package, pos token.Pos) *FuncInfo {
	var best *FuncInfo
	var bestSize token.Pos
	consider := func(fi *FuncInfo) {
		body := fi.Body()
		if body == nil || pos < body.Pos() || pos > body.End() {
			return
		}
		if size := body.End() - body.Pos(); best == nil || size < bestSize {
			best, bestSize = fi, size
		}
	}
	for _, fi := range p.funcs {
		if fi.Pkg == pkg {
			consider(fi)
		}
	}
	for _, fi := range p.lits {
		if fi.Pkg == pkg {
			consider(fi)
		}
	}
	return best
}

// propagateHot walks the call graph from every annotated root and
// marks each statically reachable function hot, recording the caller
// that reached it first so diagnostics can name the chain.
func (p *Program) propagateHot() {
	var queue []*FuncInfo
	for _, fi := range p.funcs {
		if fi.Annotated {
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for _, callee := range fi.calls {
			if callee.Hot() {
				continue
			}
			callee.HotVia = fi
			queue = append(queue, callee)
		}
	}
}

// HotFuncs returns every hot function declared in pkg, in source
// order, so diagnostics come out deterministically.
func (p *Program) HotFuncs(pkg *Package) []*FuncInfo {
	var out []*FuncInfo
	for _, fi := range p.funcs {
		if fi.Pkg == pkg && fi.Hot() {
			out = append(out, fi)
		}
	}
	for _, fi := range p.lits {
		if fi.Pkg == pkg && fi.Hot() {
			out = append(out, fi)
		}
	}
	sortFuncInfos(out)
	return out
}

func sortFuncInfos(fis []*FuncInfo) {
	for i := 1; i < len(fis); i++ {
		for j := i; j > 0 && fis[j].Body().Pos() < fis[j-1].Body().Pos(); j-- {
			fis[j], fis[j-1] = fis[j-1], fis[j]
		}
	}
}

// hasHotPathDirective reports whether the declaration's doc comment
// (or a comment in its header) carries //riflint:hotpath.
func hasHotPathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == HotPathDirective || strings.HasPrefix(text, HotPathDirective+" ") {
			return true
		}
	}
	return false
}

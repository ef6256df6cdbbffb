package analysis

// The errorflow analyzer enforces the degradation contract on the
// read/fault path, the result-serving layer, and the persistence
// tier: an error produced in internal/ssd, internal/faults,
// internal/replay, internal/resultcache, internal/serve or
// cmd/rifload must go somewhere — returned to the caller (possibly
// wrapped), handed to another function, stored, sent on a channel, or
// counted on an obs instrument. On the durability
// path this is load-bearing in the most literal way: a dropped fsync
// or Close error is the canonical silent-data-loss bug. Three shapes
// are flagged:
//
//   - a call's error result assigned to the blank identifier, or a
//     call whose sole error result is discarded as a bare statement
//     (category droppederr)
//   - an error variable that is assigned but never consumed anywhere
//     in the function (category droppederr)
//   - an error variable overwritten by a sibling statement before any
//     read — the first failure silently vanishes (category deaderr)
//
// A deliberate drop is waived in place with
//
//	//riflint:allow droppederr -- <why this failure is ignorable>
//
// which keeps every swallowed error greppable and reviewed.

import (
	"go/ast"
	"go/types"
	"strings"
)

// errorFlowPackages is the read/fault path plus the result-serving
// layer: the packages whose errors encode media failures, degradation
// outcomes, or wrong-bytes hazards (a swallowed cache or load-harness
// error can silently serve stale or mismatched artifacts).
var errorFlowPackages = map[string]bool{
	"repro/internal/ssd":         true,
	"repro/internal/faults":      true,
	"repro/internal/replay":      true,
	"repro/internal/resultcache": true,
	"repro/internal/serve":       true,
	"repro/cmd/rifload":          true,
}

func inErrorFlowPackage(path string) bool {
	return errorFlowPackages[path] || strings.HasPrefix(path, "riflint.test/errorflow")
}

// ErrorFlow rejects silently dropped or overwritten errors on the
// read/fault path.
var ErrorFlow = &Analyzer{
	Name: "errorflow",
	Doc:  "errors on the read/fault path must be returned, stored, or counted — never silently dropped",
	Run:  runErrorFlow,
}

func runErrorFlow(pass *Pass) {
	if !inErrorFlowPackage(pass.PkgPath) {
		return
	}
	info := pass.TypesInfo
	for _, file := range pass.Syntax {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			checkErrorFlow(pass, info, fd.Body)
		}
	}
}

func checkErrorFlow(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	// Unconsumed definitions: every error variable assigned from a call
	// must be consumed somewhere in the body.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkErrorAssign(pass, info, body, n)
		case *ast.ExprStmt:
			// A call with an error result used as a bare statement
			// throws the error away entirely.
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if idx := errorResultIndexes(info, call); len(idx) > 0 && !neverFails(info, call) {
				pass.Report(call.Pos(), "droppederr", "error result of call discarded; handle it, count it, or annotate the drop")
			}
		case *ast.BlockStmt:
			for _, dw := range deadErrorWrites(info, n.List) {
				pass.Report(dw.pos, "deaderr", "%s overwritten before the previous error was read", dw.obj.Name())
			}
		}
		return true
	})
}

// checkErrorAssign handles one assignment with error-typed results on
// the RHS: blank discards are flagged immediately; named error
// variables must be consumed later in the body.
func checkErrorAssign(pass *Pass, info *types.Info, body *ast.BlockStmt, as *ast.AssignStmt) {
	// Only call-result assignments produce errors worth tracking here;
	// `err := errors.New(...)` constructions are producers whose
	// consumption the enclosing return path covers.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		for _, i := range errorResultIndexes(info, call) {
			if i >= len(as.Lhs) {
				continue
			}
			checkErrorDest(pass, info, body, as.Lhs[i], call)
		}
		return
	}
	if len(as.Rhs) == len(as.Lhs) {
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if idx := errorResultIndexes(info, call); len(idx) == 1 && idx[0] == 0 {
				checkErrorDest(pass, info, body, as.Lhs[i], call)
			}
		}
	}
}

func checkErrorDest(pass *Pass, info *types.Info, body *ast.BlockStmt, lhs ast.Expr, call *ast.CallExpr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return // stored into a field or slot: that IS consumption
	}
	if id.Name == "_" {
		pass.Report(id.Pos(), "droppederr", "error result assigned to _; handle it, count it, or annotate the drop")
		return
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil || !isErrorType(obj.Type()) {
		return
	}
	// Results and package-level variables escape the function by
	// construction.
	if v, ok := obj.(*types.Var); ok && (v.IsField() || v.Pkg() == nil || v.Parent() == v.Pkg().Scope()) {
		return
	}
	if isNamedResult(info, body, obj) {
		return
	}
	if !consumesError(info, body, obj) {
		pass.Report(id.Pos(), "droppederr", "%s is assigned but never returned, stored, or counted in this function", id.Name)
	}
}

// neverFails recognizes calls whose error result is nil by documented
// contract: fmt.Fprint* writing to a *strings.Builder or
// *bytes.Buffer. Dropping those is idiomatic, not a swallowed failure.
func neverFails(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Fprint", "Fprintf", "Fprintln":
	default:
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok {
		return false
	}
	return namedFrom(tv.Type, "strings", "Builder") || namedFrom(tv.Type, "bytes", "Buffer")
}

// isNamedResult reports whether obj is a named result parameter of the
// function whose body this is: assigning one sets the return value, so
// it is consumed by definition.
func isNamedResult(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	// A named result is declared at the function's position, before the
	// body, in the function scope enclosing the body's statements.
	return v.Pos() < body.Pos() && !v.IsField()
}

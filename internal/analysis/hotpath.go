package analysis

// The hotpath analyzer statically protects the allocation-free wins of
// the sim engine rewrite and the LDPC scratch reuse: a function whose
// doc comment carries //riflint:hotpath — and everything it
// transitively calls through the static call graph — must not contain
// an allocation site. Flagged constructs:
//
//   - map, slice and &composite literals (heap values)
//   - make and new
//   - append (may grow its backing array)
//   - function literals (closures capture by heap allocation)
//   - bound method values (x.m used as a value, not called): binding
//     the receiver allocates just as a closure does
//   - calls into fmt, and strings.Builder use
//   - boxing a non-pointer-shaped value into an interface
//
// Failure paths are exempt: everything inside the argument list of a
// panic call may allocate (a panic ends the experiment anyway; the
// fault ladders convert recoverable failures into counted statuses
// long before this).
//
// Intentional, measured allocations — the event free-list refill, a
// warm append into preallocated capacity — are waived per line with
//
//	//riflint:allow alloc -- <why this does not allocate in steady state>
//
// and every waiver stays pinned by the AllocsPerRun benchmarks the
// cross-check test ties to this annotation set.

import (
	"go/ast"
	"go/types"
)

// HotPath rejects allocation sites in //riflint:hotpath functions and
// their static callees.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "annotated hot paths and their static callees must be allocation-free",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) {
	for _, fi := range pass.Prog.HotFuncs(pass.Package) {
		if pass.InTestFile(fi.Body().Pos()) {
			continue
		}
		checkHotFunc(pass, fi)
	}
}

// hotContext renders "f" for annotated roots and "f (hot via root)"
// for functions pulled in transitively, so a diagnostic names the
// annotation that put the function on the hot path.
func hotContext(fi *FuncInfo) string {
	if root := fi.Root(); root != fi {
		return fi.Name() + " (hot via " + root.Name() + ")"
	}
	return fi.Name()
}

func checkHotFunc(pass *Pass, fi *FuncInfo) {
	info := pass.TypesInfo
	where := hotContext(fi)
	walkStack(fi.Body(), func(n ast.Node, stack []ast.Node) bool {
		if inPanicArgs(stack) {
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != fi.Lit {
				pass.Report(n.Pos(), "alloc", "closure allocated in hot path %s", where)
				return false // its body is checked via the call graph if it runs hot
			}
		case *ast.CompositeLit:
			tv := info.Types[n]
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				pass.Report(n.Pos(), "alloc", "map literal allocated in hot path %s", where)
			case *types.Slice:
				pass.Report(n.Pos(), "alloc", "slice literal allocated in hot path %s", where)
			default:
				// A plain struct/array literal lives on the stack unless
				// its address is taken.
				if len(stack) > 0 {
					if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op.String() == "&" {
						pass.Report(u.Pos(), "alloc", "heap composite literal (&%s{...}) in hot path %s", typeString(tv.Type), where)
					}
				}
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal && !isCalled(n, stack) {
				pass.Report(n.Pos(), "alloc", "bound method value %s.%s allocated in hot path %s",
					typeString(sel.Recv()), n.Sel.Name, where)
			}
		case *ast.CallExpr:
			if isPanicCall(n) {
				return true // the failure path may allocate; its subtree is exempt
			}
			checkHotCall(pass, n, where)
		}
		checkHotBoxing(pass, info, n, where)
		return true
	})
}

// checkHotCall flags builtin allocators and known-allocating stdlib on
// the hot path.
func checkHotCall(pass *Pass, call *ast.CallExpr, where string) {
	info := pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Report(call.Pos(), "alloc", "make in hot path %s", where)
			case "new":
				pass.Report(call.Pos(), "alloc", "new in hot path %s", where)
			case "append":
				pass.Report(call.Pos(), "alloc", "append may grow its backing array in hot path %s", where)
			}
			return
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			if fn.Pkg().Path() == "fmt" {
				pass.Report(call.Pos(), "alloc", "fmt.%s allocates in hot path %s", fn.Name(), where)
				return
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
				namedFrom(sig.Recv().Type(), "strings", "Builder") {
				pass.Report(call.Pos(), "alloc", "strings.Builder use in hot path %s", where)
			}
		}
	}
}

// checkHotBoxing flags implicit conversions of non-pointer-shaped
// concrete values into interface slots — assignments and call
// arguments where the static context type is an interface but the
// value is not. Boxing a value type heap-allocates the copy.
func checkHotBoxing(pass *Pass, info *types.Info, n ast.Node, where string) {
	report := func(expr ast.Expr, dst types.Type) {
		if expr == nil || dst == nil {
			return
		}
		if _, ok := dst.Underlying().(*types.Interface); !ok {
			return
		}
		tv, ok := info.Types[expr]
		if !ok || tv.Type == nil || tv.IsNil() {
			return
		}
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			return
		}
		if pointerShaped(tv.Type) {
			return
		}
		// Constants of basic type stored in interfaces use shared
		// read-only boxes for small values, but not in general; flag
		// only non-constant operands to keep the signal high.
		if tv.Value != nil {
			return
		}
		pass.Report(expr.Pos(), "alloc", "interface boxing of %s in hot path %s", typeString(tv.Type), where)
	}
	switch n := n.(type) {
	case *ast.CallExpr:
		sig := callSignature(info, n)
		if sig == nil {
			return
		}
		for i, arg := range n.Args {
			if i >= sig.Params().Len() {
				if sig.Variadic() {
					if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
						report(arg, s.Elem())
					}
				}
				continue
			}
			pt := sig.Params().At(i).Type()
			if sig.Variadic() && i == sig.Params().Len()-1 && !hasEllipsis(n) {
				if s, ok := pt.(*types.Slice); ok {
					pt = s.Elem()
				}
			}
			report(arg, pt)
		}
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return
		}
		for i := range n.Lhs {
			lt, ok := info.Types[n.Lhs[i]]
			if !ok {
				if id, isID := ast.Unparen(n.Lhs[i]).(*ast.Ident); isID {
					if obj := info.Defs[id]; obj != nil {
						report(n.Rhs[i], obj.Type())
					}
				}
				continue
			}
			report(n.Rhs[i], lt.Type)
		}
	}
}

// callSignature returns the signature of the called function, nil for
// builtins and type conversions.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func hasEllipsis(call *ast.CallExpr) bool { return call.Ellipsis.IsValid() }

// pointerShaped reports whether values of t are stored directly in an
// interface word (no boxing copy): pointers, channels, maps, funcs and
// unsafe pointers.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isCalled reports whether the selector x.m is the function of a call,
// x.m(...), rather than a value bound for later.
func isCalled(sel *ast.SelectorExpr, stack []ast.Node) bool {
	var child ast.Expr = sel
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			child = p
			continue
		case *ast.CallExpr:
			return p.Fun == child
		}
		return false
	}
	return false
}

// isPanicCall reports whether call invokes the panic builtin.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// inPanicArgs reports whether the node's ancestor stack passes through
// the argument list of a call to the panic builtin.
func inPanicArgs(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if call, ok := stack[i].(*ast.CallExpr); ok && isPanicCall(call) {
			return true
		}
	}
	return false
}

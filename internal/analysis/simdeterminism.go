package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SimDeterminism enforces bit-reproducibility of simulation runs: no
// wall-clock reads, no process-global random streams, and no unordered
// map iteration feeding output or simulator state in the deep-sim
// packages. These are exactly the failure modes that silently break
// the seed->figures contract the paper's regression tests rely on.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock reads (time.Now & friends), process-global " +
		"math/rand state, and order-sensitive map iteration in simulator packages",
	Run: runSimDeterminism,
}

// wallClockFuncs are the time package functions that observe or depend
// on the host's wall clock or monotonic clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// seededRandConstructors are the math/rand(/v2) functions that return
// an explicitly seeded source; everything else at package level draws
// from the shared, non-reproducible global stream.
var seededRandConstructors = map[string]bool{
	"New": true, "NewPCG": true, "NewChaCha8": true,
	"NewSource": true, "NewZipf": true,
}

func runSimDeterminism(pass *Pass) {
	for _, file := range pass.Syntax {
		if len(file.Decls) == 0 {
			continue
		}
		if pass.InTestFile(file.Pos()) {
			continue
		}
		walkStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkWallClock(pass, n)
				checkGlobalRand(pass, n)
			case *ast.RangeStmt:
				checkMapOrder(pass, n, stack)
			}
			return true
		})
	}
}

func checkWallClock(pass *Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	if !wallClockFuncs[fn.Name()] {
		return
	}
	pass.Report(sel.Pos(), "wallclock",
		"time.%s reads the wall clock: simulation behavior must depend only on sim.Time "+
			"(annotate with //riflint:allow wallclock -- <reason> if this is host-side measurement)",
		fn.Name())
}

func checkGlobalRand(pass *Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	// Method calls on an explicit *rand.Rand are fine; only
	// package-level functions share global state.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	if seededRandConstructors[fn.Name()] {
		return
	}
	pass.Report(sel.Pos(), "globalrand",
		"%s.%s draws from the process-global random stream; use a seeded sim.RNG "+
			"(or rand.New(rand.NewPCG(seed, stream))) so runs replay bit-exactly",
		path, fn.Name())
}

// checkMapOrder flags `for ... range m` over a map when the loop body
// does something order-sensitive: appends to a slice that outlives the
// loop (unless it is sorted afterwards in the same function), writes
// formatted output, sends on a channel, schedules simulator events, or
// conditionally keeps the range key in a variable that outlives the
// loop (an arg-min/arg-max whose ties go to whichever key comes first).
func checkMapOrder(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) {
	if !pass.DeepSim {
		return
	}
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	fn := enclosingFunc(stack)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Report(rs.For, "maporder",
				"map iteration order is random: sending on a channel from inside a map range "+
					"makes receive order nondeterministic (iterate sorted keys instead)")
			return false
		case *ast.AssignStmt:
			if obj := appendTarget(pass.TypesInfo, n); obj != nil && declaredOutside(obj, rs) && !sortedLater(pass, fn, obj) {
				pass.Report(rs.For, "maporder",
					"map iteration order is random: appending to %q inside a map range yields a "+
						"nondeterministic slice (sort it afterwards or iterate sorted keys)", obj.Name())
				return false
			}
		case *ast.IfStmt:
			if obj := keyPick(pass.TypesInfo, rs, n); obj != nil {
				pass.Report(rs.For, "maporder",
					"map iteration order is random: keeping the range key in %q only when a condition "+
						"holds picks whichever tied key comes first (break ties on the key itself or "+
						"iterate sorted keys)", obj.Name())
				return false
			}
		case *ast.CallExpr:
			if name, bad := orderSensitiveCall(pass.TypesInfo, n); bad {
				pass.Report(rs.For, "maporder",
					"map iteration order is random: calling %s inside a map range makes output or "+
						"event order nondeterministic (iterate sorted keys instead)", name)
				return false
			}
		}
		return true
	})
}

// keyPick returns the variable an if statement inside a map range
// assigns the range key to — or a loop-local value derived from it —
// when that variable outlives the loop: the arg-min/arg-max shape. A
// condition that also orders the key against that variable breaks
// ties on the key itself, so the pick no longer depends on iteration
// order and is not reported.
func keyPick(info *types.Info, rs *ast.RangeStmt, ifs *ast.IfStmt) types.Object {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || info.Defs[key] == nil {
		return nil
	}
	derived := map[types.Object]bool{info.Defs[key]: true}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if obj := identObj(info, lhs); obj != nil && !declaredOutside(obj, rs) && mentions(info, as.Rhs[i], derived) {
				derived[obj] = true
			}
		}
		return true
	})
	var picked types.Object
	branches := []ast.Node{ifs.Body}
	if ifs.Else != nil {
		branches = append(branches, ifs.Else)
	}
	for _, br := range branches {
		ast.Inspect(br, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			// Compound assignments (+=, ...) are folds, not picks; the
			// append check owns x = append(x, ...).
			if !ok || picked != nil || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) || appendTarget(info, as) != nil {
				return picked == nil
			}
			for i, lhs := range as.Lhs {
				obj := identObj(info, lhs)
				if obj != nil && declaredOutside(obj, rs) && mentions(info, as.Rhs[i], derived) &&
					!ordersAgainst(info, ifs.Cond, derived, obj) {
					picked = obj
					return false
				}
			}
			return true
		})
	}
	return picked
}

// identObj resolves an identifier expression to its object.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// mentions reports whether e refers to any object in objs.
func mentions(info *types.Info, e ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// ordersAgainst reports whether cond compares (<, <=, >, >=) a value
// derived from the key with target: the tie-break of a deterministic
// arg-min.
func ordersAgainst(info *types.Info, cond ast.Expr, derived map[types.Object]bool, target types.Object) bool {
	want := map[types.Object]bool{target: true}
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return !found
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			if mentions(info, be.X, derived) && mentions(info, be.Y, want) ||
				mentions(info, be.X, want) && mentions(info, be.Y, derived) {
				found = true
			}
		}
		return !found
	})
	return found
}

// appendTarget returns the object a statement `x = append(x, ...)`
// assigns to, or nil.
func appendTarget(info *types.Info, as *ast.AssignStmt) types.Object {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[lhs]
	if obj == nil {
		obj = info.Defs[lhs]
	}
	return obj
}

// declaredOutside reports whether obj's declaration lies outside the
// range statement, i.e. the appended slice outlives the loop.
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// sortedLater reports whether fn's body contains a sort.* / slices.*
// call mentioning obj — the collect-then-sort idiom, which is
// deterministic.
func sortedLater(pass *Pass, fn ast.Node, obj types.Object) bool {
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := funcFrom(pass.TypesInfo, call.Fun, "sort")
		if f == nil {
			f = funcFrom(pass.TypesInfo, call.Fun, "slices")
		}
		if f == nil {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					sorted = true
				}
				return !sorted
			})
		}
		return !sorted
	})
	return sorted
}

// orderSensitiveCall reports calls that serialize state or schedule
// events: fmt printing, io/string-builder writes, and sim.Engine
// scheduling.
func orderSensitiveCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if f := funcFrom(info, call.Fun, "fmt"); f != nil {
		return "fmt." + f.Name(), true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "WriteTo":
		if namedFrom(recv, "strings", "Builder") || namedFrom(recv, "bytes", "Buffer") {
			return typeString(recv) + "." + fn.Name(), true
		}
	case "At", "After":
		if namedFrom(recv, simPkgPath, "Engine") {
			return "sim.Engine." + fn.Name(), true
		}
	}
	return "", false
}

func typeString(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

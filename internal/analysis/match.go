package analysis

import (
	"go/ast"
	"go/types"
)

// Canonical paths of the packages whose types the analyzers key on.
// Golden-test fixtures provide stub packages under the same paths so
// the matchers behave identically in tests.
const (
	simPkgPath = "repro/internal/sim"
	ssdPkgPath = "repro/internal/ssd"
	obsPkgPath = "repro/internal/obs"
)

// deepSimRoots seed the maporder blast radius: the event engine and
// the device model it drives. The full deep set is derived from the
// import graph at load time (see deriveDeepSim in load.go) — any
// module package that transitively imports a root, or that such an
// importer depends on, is deep. PRs 4–6 each had to remember to
// extend the old hand-maintained package list; the derivation can't
// be forgotten.
var deepSimRoots = []string{simPkgPath, ssdPkgPath}

// namedFrom reports whether t (after stripping pointers) is the named
// type pkgPath.name, returning the stripped named type.
func namedFrom(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isSimTime reports whether t is repro/internal/sim.Time.
func isSimTime(t types.Type) bool {
	return t != nil && namedFrom(t, simPkgPath, "Time")
}

// obsInstruments are the handle types the obs registry hands out.
var obsInstruments = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"Tracer":    true,
}

// obsInstrumentName returns the instrument type name if t (after
// stripping pointers) is one of the obs handle types, else "".
func obsInstrumentName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != obsPkgPath {
		return ""
	}
	if obsInstruments[obj.Name()] {
		return obj.Name()
	}
	return ""
}

// funcFrom returns the *types.Func for the expression being called if
// it resolves to a function declared in package pkgPath, else nil.
// It sees through selector expressions (pkg.Fn, recv.Method).
func funcFrom(info *types.Info, fun ast.Expr, pkgPath string) *types.Func {
	fun = ast.Unparen(fun)
	var obj types.Object
	switch e := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return nil
	}
	return fn
}

// mentionsSimTimeValue reports whether expr's subtree references any
// constant, variable or function result of type sim.Time — i.e. the
// expression derives from the typed unit system rather than a raw
// number.
func mentionsSimTimeValue(info *types.Info, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		switch obj.(type) {
		case *types.Const, *types.Var, *types.Func:
		default:
			return true
		}
		switch o := obj.(type) {
		case *types.Func:
			if sig, ok := o.Type().(*types.Signature); ok && sig.Results().Len() == 1 && isSimTime(sig.Results().At(0).Type()) {
				found = true
			}
		default:
			if isSimTime(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

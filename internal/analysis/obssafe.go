package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// ObsSafe keeps the observability plane trustworthy: every instrument
// handle must come from an obs.Registry (or be the sanctioned nil
// no-op), and no two call sites may register different instruments
// under one name. A hand-rolled obs.Counter{} works — the zero value
// is usable by design — but it never appears in snapshots, manifests
// or the Prometheus export, so the metric silently reads zero; two
// registrations of the same name silently merge two subsystems'
// numbers.
var ObsSafe = &Analyzer{
	Name: "obssafe",
	Doc: "require obs instruments to be obtained from a Registry (or be nil) " +
		"and forbid registering two instruments under one name",
	Run: runObsSafe,
}

// registryMethods maps obs.Registry method names to the instrument
// kind they register.
var registryMethods = map[string]string{
	"Counter":   "counter",
	"Gauge":     "gauge",
	"Histogram": "histogram",
}

// instrumentUse is one registry lookup with a constant name.
type instrumentUse struct {
	kind string
	name string
	pos  token.Pos
}

func runObsSafe(pass *Pass) {
	if pass.PkgPath == obsPkgPath {
		return // the registry implementation constructs its own instruments
	}
	var uses []instrumentUse
	for _, file := range pass.Syntax {
		if len(file.Decls) == 0 || pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				checkRawInstrument(pass, n)
			case *ast.CallExpr:
				checkNewInstrument(pass, n)
				if u, ok := registryLookup(pass, n); ok {
					uses = append(uses, u)
				}
			case *ast.ValueSpec:
				checkValueInstrument(pass, n)
			case *ast.StructType:
				checkFieldInstruments(pass, n)
			}
			return true
		})
	}
	reportDuplicates(pass, uses)
}

// checkRawInstrument flags obs.Counter{} / &obs.Counter{} literals.
func checkRawInstrument(pass *Pass, cl *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[cl]
	if !ok {
		return
	}
	if name := obsInstrumentName(tv.Type); name != "" {
		pass.Report(cl.Pos(), "rawinstrument",
			"obs.%s constructed directly: a hand-rolled instrument never reaches "+
				"snapshots or manifests — obtain it from an obs.Registry, or pass a "+
				"nil handle for the disabled path", name)
	}
}

// checkNewInstrument flags new(obs.Counter) and friends.
func checkNewInstrument(pass *Pass, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "new" || len(call.Args) != 1 {
		return
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || !tv.IsType() {
		return
	}
	if name := obsInstrumentName(tv.Type); name != "" {
		pass.Report(call.Pos(), "rawinstrument",
			"new(obs.%s) constructs a detached instrument: obtain handles from an "+
				"obs.Registry, or pass a nil handle for the disabled path", name)
	}
}

// checkValueInstrument flags `var c obs.Counter` — a by-value
// instrument is a detached instrument (a nil *pointer* is the
// sanctioned no-op).
func checkValueInstrument(pass *Pass, vs *ast.ValueSpec) {
	if vs.Type == nil {
		return
	}
	tv, ok := pass.TypesInfo.Types[vs.Type]
	if !ok {
		return
	}
	if _, isPtr := tv.Type.(*types.Pointer); isPtr {
		return
	}
	if name := obsInstrumentName(tv.Type); name != "" {
		pass.Report(vs.Pos(), "rawinstrument",
			"by-value obs.%s declaration creates a detached instrument: hold a "+
				"*obs.%s obtained from a Registry (nil disables it)", name, name)
	}
}

// checkFieldInstruments flags by-value instrument struct fields for
// the same reason as checkValueInstrument.
func checkFieldInstruments(pass *Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		if _, isPtr := tv.Type.(*types.Pointer); isPtr {
			continue
		}
		if name := obsInstrumentName(tv.Type); name != "" {
			pass.Report(field.Pos(), "rawinstrument",
				"by-value obs.%s field embeds a detached instrument: hold a *obs.%s "+
					"obtained from a Registry (nil disables it)", name, name)
		}
	}
}

// registryLookup recognizes reg.Counter("name")-style calls with a
// compile-time-constant name.
func registryLookup(pass *Pass, call *ast.CallExpr) (instrumentUse, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return instrumentUse{}, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return instrumentUse{}, false
	}
	kind, ok := registryMethods[fn.Name()]
	if !ok {
		return instrumentUse{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !namedFrom(sig.Recv().Type(), obsPkgPath, "Registry") {
		return instrumentUse{}, false
	}
	if len(call.Args) == 0 {
		return instrumentUse{}, false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return instrumentUse{}, false
	}
	return instrumentUse{kind: kind, name: constant.StringVal(tv.Value), pos: call.Pos()}, true
}

// reportDuplicates flags (a) one name registered as two different
// instrument kinds anywhere in the package, and (b) the same
// name+kind looked up at more than one call site — hot paths must
// hold the handle, not re-resolve it, and duplicate registrations in
// distinct subsystems silently merge their numbers.
func reportDuplicates(pass *Pass, uses []instrumentUse) {
	sort.Slice(uses, func(i, j int) bool { return uses[i].pos < uses[j].pos })

	kindsByName := make(map[string]map[string]bool)
	for _, u := range uses {
		if kindsByName[u.name] == nil {
			kindsByName[u.name] = make(map[string]bool)
		}
		kindsByName[u.name][u.kind] = true
	}

	firstByKey := make(map[string]token.Pos)
	for _, u := range uses {
		if kinds := kindsByName[u.name]; len(kinds) > 1 {
			pass.Report(u.pos, "dupinstrument",
				"instrument name %q is registered as %s: one name must map to one "+
					"instrument (rename one of them)", u.name, kindList(kinds))
			continue
		}
		key := u.kind + "\x00" + u.name
		if first, ok := firstByKey[key]; ok {
			pass.Report(u.pos, "dupinstrument",
				"%s %q already obtained at %s: hold the handle instead of re-registering "+
					"(or //riflint:allow dupinstrument -- <reason> for an intentional shared instrument)",
				u.kind, u.name, pass.Fset.Position(first))
			continue
		}
		firstByKey[key] = u.pos
	}
}

func kindList(kinds map[string]bool) string {
	var out []string
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return fmt.Sprintf("both %v", out)
}

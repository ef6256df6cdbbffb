package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Deps       []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export -json` on the patterns and
// decodes the package stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Deps,DepOnly,Standard,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportLookup adapts a map of import path -> export-data file to the
// lookup signature the gc importer expects.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

// parseFiles parses the named files (joined to dir when relative) with
// comments retained.
func parseFiles(fset *token.FileSet, dir string, files []string) ([]*ast.File, error) {
	var out []*ast.File
	for _, name := range files {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// newTypesInfo allocates the type-checker fact maps the analyzers use.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// checkPackage type-checks one parsed package against an importer.
func checkPackage(fset *token.FileSet, path string, files []*ast.File, imp types.Importer, goVersion string) (*Package, error) {
	conf := types.Config{Importer: imp, GoVersion: goVersion}
	info := newTypesInfo()
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	pkg := &Package{
		PkgPath:   path,
		Fset:      fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}
	pkg.buildAllows()
	return pkg, nil
}

// Load resolves the package patterns (relative to dir; "" means the
// current directory) and returns the matched packages parsed and
// type-checked from source. Dependencies — including other packages in
// this module — are imported from the toolchain's export data, so a
// load costs one `go list` plus parsing only the packages under
// analysis.
func Load(dir string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string)
	var targets []*listedPackage
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	deep := deriveDeepSim(listed)

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		files, err := parseFiles(fset, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg, err := checkPackage(fset, t.ImportPath, files, imp, "")
		if err != nil {
			return nil, err
		}
		pkg.DeepSim = deep[t.ImportPath]
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// deriveDeepSim computes the maporder blast radius from the import
// graph instead of a hand-maintained list: a module package is deep
// when it transitively imports one of the deepSimRoots (it can perturb
// event order), or when a package that does depends on it (its output
// feeds a sim-driven artifact, so unordered iteration there scrambles
// reports just as surely). go list's Deps field is already transitive,
// so each direction is a single pass.
func deriveDeepSim(listed []*listedPackage) map[string]bool {
	roots := make(map[string]bool, len(deepSimRoots))
	for _, r := range deepSimRoots {
		roots[r] = true
	}
	module := make(map[string]*listedPackage)
	for _, p := range listed {
		if !p.Standard {
			module[p.ImportPath] = p
		}
	}
	deep := make(map[string]bool)
	for path, p := range module {
		if roots[path] {
			deep[path] = true
			continue
		}
		for _, d := range p.Deps {
			if roots[d] {
				deep[path] = true
				break
			}
		}
	}
	var importers []string
	for path := range deep {
		importers = append(importers, path)
	}
	for _, path := range importers {
		for _, d := range module[path].Deps {
			if _, ok := module[d]; ok {
				deep[d] = true
			}
		}
	}
	return deep
}

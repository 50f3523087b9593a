// Package loading for the real module (testdata fixtures use linttest's
// own loader instead). The approach is the classic driver recipe minus the
// x/tools dependency: `go list -export -json -deps` yields every package's
// file list plus a compiled export-data file for its dependencies, the
// targets are parsed from source, and go/types checks them with the gc
// export-data importer resolving imports. Everything runs offline — the
// module has no third-party dependencies, so the export data always comes
// from the local build cache.
package lint

import (
	"bytes"
	"encoding/json"
	"errors"
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

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// moduleList is one `go list` invocation's result: every matched package
// plus its dependency closure, with a shared importer for type-checking.
type moduleList struct {
	pkgs  map[string]*listPkg
	order []*listPkg // go list output order: dependencies first
	fset  *token.FileSet
	imp   types.Importer
}

// listModule runs `go list -e -export -json -deps` over patterns (relative
// to dir, typically the module root) and prepares the shared gc importer.
// The importer caches packages, so diamond dependencies are materialized
// once and type identity holds within (and across) every checkPackage call.
func listModule(dir string, patterns []string) (*moduleList, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	ml := &moduleList{pkgs: map[string]*listPkg{}, fset: token.NewFileSet()}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		ml.pkgs[p.ImportPath] = p
		ml.order = append(ml.order, p)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		p, ok := ml.pkgs[path]
		if !ok || p.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.Export)
	}
	ml.imp = importer.ForCompiler(ml.fset, "gc", lookup)
	return ml, nil
}

// LoadPackages lists, parses and type-checks the packages matched by
// patterns (relative to dir, typically the module root), returning one
// Target per package in go list order (dependencies first). Only the
// matched packages outside GOROOT are targets, and a listed package error
// fails the load. Only non-test compiled sources are analyzed: the enforced
// invariants are contracts of production code, and the analyzers' own
// behavior is pinned by the linttest fixture suites instead.
func LoadPackages(dir string, patterns []string) ([]*Target, error) {
	ml, err := listModule(dir, patterns)
	if err != nil {
		return nil, err
	}
	var targets []*Target
	for _, p := range ml.order {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		t, err := ml.checkPackage(p)
		if err != nil {
			return nil, err
		}
		targets = append(targets, t)
	}
	return targets, nil
}

// mapImporter applies a package's ImportMap (vendoring/test-variant
// indirection) before delegating to the shared gc importer.
type mapImporter struct {
	imp types.Importer
	m   map[string]string
}

func (mi mapImporter) Import(path string) (*types.Package, error) {
	if actual, ok := mi.m[path]; ok {
		path = actual
	}
	return mi.imp.Import(path)
}

// checkPackage parses and type-checks one listed package into a Target.
func (ml *moduleList) checkPackage(p *listPkg) (*Target, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(ml.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: mapImporter{imp: ml.imp, m: p.ImportMap}}
	pkg, err := conf.Check(p.ImportPath, ml.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
	}
	return &Target{PkgPath: p.ImportPath, Fset: ml.fset, Files: files, Pkg: pkg, Info: info}, nil
}

// NewInfo allocates the types.Info maps the analyzers rely on; linttest
// uses it too so fixtures are checked with the same fidelity.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

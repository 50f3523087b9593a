// Package lint is the repo's static-analysis suite: four custom analyzers
// that machine-enforce contracts which are otherwise only guarded by code
// review. The cmd/dcsvet multichecker composes them; CI runs it as a
// required step, and a repo-wide clean run is asserted by a meta-test so a
// regression fails `go test ./...` too. Every finding fails the run: there
// are no severity tiers and no baseline of accepted findings.
//
// The enforced contracts (see CONTRIBUTING.md for the narrative version):
//
//   - loopcheck: every graph-scale solver loop must poll
//     internal/runstate so cancellation works (PR 3/6). A loop that can
//     iterate Ω(n) times without a reachable Checkpoint/Cancelled call makes
//     a request uncancellable for its whole duration.
//
//   - floatdet: solver arithmetic must be order-deterministic
//     because the parallel and incremental-watch harnesses assert bitwise
//     equivalence against sequential oracles. Accumulating floats (or
//     selecting an argmax key) while ranging over a map re-introduces
//     iteration-order dependence.
//
//   - guardedby: `// guarded by <mu>` field comments are checked
//     against the (direct) call graph: a field so annotated may only be
//     touched by functions that lock the named mutex, or are only called by
//     functions that do. Since driver v2 the annotation is exported as a
//     fact on the field, so accesses to exported guarded fields from other
//     packages are checked too.
//
//   - ctxflow: library code must not mint root contexts — the
//     cancellation capability flows down from the caller — and a function
//     holding a ctx must not build an uncancellable runstate.New(nil) for
//     the solvers below it. Binary entry points (package main) own their
//     root contexts.
//
// Two contracts are guarded at run time instead, by tests: graph storage is
// never written (internal/partest snapshots every fixture around each solver
// call and reruns its suite over read-only mmapped .dcsg files), and serve
// leaks no mapping, pin or goroutine (its TestMain and the memory-budget
// tests check the counts return to zero).
//
// The framework below deliberately mirrors the golang.org/x/tools
// go/analysis API (Analyzer, Pass, object Facts, Reportf, an
// analysistest-style fixture harness in linttest) but is built on the
// standard library alone, so the module keeps its zero-dependency property
// and the gate cannot be skipped for want of a network. Loading uses
// `go list -export` plus the gc export-data importer; see load.go. There is
// one driver path — LoadPackages then Analyze — shared by cmd/dcsvet, the
// repo-wide clean test and the linttest fixtures, and it keeps no state
// between runs: every package is type-checked and analyzed afresh.
//
// False positives are suppressed in place with
//
//	//lint:allow <analyzer> -- <reason>
//
// on (or immediately above) the flagged line. The reason is mandatory and
// machine-enforced: an allow comment without one is itself a diagnostic.
// The same directive in a function's doc comment suppresses the analyzer
// for the whole function and is exported as an allow-fact on the function
// object — the sanctioned way to tag a documented whole-function contract
// rather than sprinkling per-line allows.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"unicode"
)

// An Analyzer describes one analysis: a name diagnostics are attributed to
// (and that //lint:allow comments reference), one-line documentation, and
// the function that runs it over a single package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass is one (analyzer, package) unit of work, carrying the typed syntax
// of the package under analysis plus the fact store of the run.
// Report/Reportf append diagnostics; the driver applies //lint:allow
// filtering afterwards, so analyzers never need to know about suppression.
// ExportObjectFact/ImportObjectFact (fact.go) communicate typed summaries
// across packages: the driver guarantees dependencies are analyzed first.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	facts *factStore
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned for editors (path:line:col).
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// RelFile returns d's file path slash-separated and relative to root when
// it is inside root, else unchanged — the normalized form of the
// machine-readable output.
func RelFile(d Diagnostic, root string) string {
	file := d.Pos.Filename
	if root != "" {
		if abs, err := filepath.Abs(root); err == nil {
			if rel, err := filepath.Rel(abs, file); err == nil && filepath.IsLocal(rel) {
				file = rel
			}
		}
	}
	return filepath.ToSlash(file)
}

// A Target is one loaded, type-checked package: the unit the driver
// consumes. LoadPackages builds Targets for real module packages; linttest
// builds them for testdata fixtures.
type Target struct {
	PkgPath string
	Imports []string // import paths, for dependency-order scheduling
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// Analyze runs every analyzer over every target in dependency order and
// returns the surviving diagnostics sorted by position:
// //lint:allow-suppressed findings are dropped, and malformed allow comments
// (missing reason, unknown analyzer name) are reported as diagnostics of the
// pseudo-analyzer "allow", which cannot itself be suppressed.
func Analyze(targets []*Target, analyzers []*Analyzer) ([]Diagnostic, error) {
	store := newFactStore()
	var all []Diagnostic
	for _, t := range sortTargets(targets) {
		diags, err := analyzeTarget(t, analyzers, store)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	sortDiagnostics(all)
	return all, nil
}

// analyzeTarget runs the analyzers over one package and applies that
// package's //lint:allow suppression, returning its final diagnostics.
// Exported facts (including function-level allow-facts) land in store for
// later packages.
func analyzeTarget(t *Target, analyzers []*Analyzer, store *factStore) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     t.Fset,
			Files:    t.Files,
			Pkg:      t.Pkg,
			Info:     t.Info,
			facts:    store,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, t.PkgPath, err)
		}
	}
	allows, policy := collectAllows(t, analyzers, store)
	kept := policy
	for _, d := range diags {
		if !suppressed(d, allows) {
			kept = append(kept, d)
		}
	}
	sortDiagnostics(kept)
	return kept, nil
}

func sortDiagnostics(diags []Diagnostic) {
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
}

// sortTargets orders targets so every target's in-run dependencies precede
// it (facts flow dependency→dependent). `go list -deps` already emits this
// order; the explicit topological sort makes the driver independent of that
// detail and keeps linttest fixture loads correct too. Ties keep input
// order, so the result is deterministic.
func sortTargets(targets []*Target) []*Target {
	byPath := make(map[string]*Target, len(targets))
	for _, t := range targets {
		byPath[t.PkgPath] = t
	}
	seen := make(map[string]bool, len(targets))
	out := make([]*Target, 0, len(targets))
	var visit func(t *Target)
	visit = func(t *Target) {
		if seen[t.PkgPath] {
			return
		}
		seen[t.PkgPath] = true
		for _, imp := range t.Imports {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		out = append(out, t)
	}
	for _, t := range targets {
		visit(t)
	}
	return out
}

// An allow is one parsed //lint:allow comment. A line allow suppresses
// diagnostics of the named analyzer on its own line and the line below (so
// it can trail the flagged statement or sit on its own line above it); a
// function-level allow (the directive inside a FuncDecl's doc comment)
// suppresses the analyzer over the function's whole extent.
type allow struct {
	file      string
	line      int
	analyzer  string
	startLine int // function-level allows: suppressed line range
	endLine   int
}

const allowPrefix = "//lint:allow"

// AllowFact marks a function carrying a function-level
// `//lint:allow <analyzer> -- <reason>` directive in its doc comment: the
// documented, reviewable contract exempting the whole function. It is
// exported on the function object under the named analyzer so dependent
// packages and tools can see the exemption.
type AllowFact struct {
	Reason string
}

// AFact marks AllowFact as a Fact.
func (*AllowFact) AFact() {}

// allowDirective is the parsed form of one //lint:allow comment line.
type allowDirective struct {
	analyzer string
	reason   string
	problem  string // non-empty: policy violation message
}

// parseAllowDirective parses the text of one comment that begins with the
// //lint:allow prefix. The syntax is
//
//	//lint:allow <analyzer> -- <reason>
//
// with a single analyzer name and a mandatory non-blank reason. ok is false
// when the comment is some other directive sharing the prefix (e.g.
// //lint:allowance) and should be ignored entirely.
func parseAllowDirective(text string) (d allowDirective, ok bool) {
	if !strings.HasPrefix(text, allowPrefix) {
		return d, false
	}
	rest := strings.TrimPrefix(text, allowPrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return d, false // some other directive, e.g. //lint:allowance
	}
	// The directive ends at an embedded `// want` clause, so the linttest
	// fixtures can annotate expected diagnostics on the same line as a
	// (possibly malformed) allow comment.
	rest, _, _ = strings.Cut(rest, "// want ")
	name, reason, cut := strings.Cut(strings.TrimSpace(rest), "--")
	name = strings.TrimSpace(name)
	if name == "" {
		d.problem = "lint:allow needs an analyzer name: //lint:allow <analyzer> -- <reason>"
		return d, true
	}
	if strings.ContainsFunc(name, unicode.IsSpace) {
		d.problem = fmt.Sprintf("lint:allow takes a single analyzer name, got %q", name)
		return d, true
	}
	if !isAnalyzerName(name) {
		d.problem = fmt.Sprintf("lint:allow analyzer name %q must be lowercase ASCII letters", name)
		return d, true
	}
	if !cut || strings.TrimSpace(reason) == "" {
		d.problem = fmt.Sprintf("lint:allow %s is missing its mandatory reason: //lint:allow %s -- <why this is safe>", name, name)
		return d, true
	}
	d.analyzer = name
	d.reason = strings.TrimSpace(reason)
	return d, true
}

// isAnalyzerName reports whether s is a plausible analyzer name: non-empty
// lowercase ASCII letters only. Names with exotic runes (unicode dashes
// glued to the name, control characters) are rejected up front so a typo'd
// directive cannot silently suppress nothing.
func isAnalyzerName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < 'a' || r > 'z' {
			return false
		}
	}
	return true
}

// collectAllows parses every //lint:allow comment in the target, returning
// the usable allows and policy diagnostics for malformed ones. Line allows
// suppress their own and the following line; an allow inside a function's
// doc comment suppresses the whole function and exports an AllowFact on the
// function object.
func collectAllows(t *Target, analyzers []*Analyzer, store *factStore) ([]allow, []Diagnostic) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var allows []allow
	var policy []Diagnostic
	for _, f := range t.Files {
		// Doc-comment groups of function declarations get function-wide
		// scope; map each comment group to its FuncDecl (if any).
		funcDocs := map[*ast.CommentGroup]*ast.FuncDecl{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDocs[fd.Doc] = fd
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, isAllow := parseAllowDirective(c.Text)
				if !isAllow {
					continue
				}
				pos := t.Fset.Position(c.Pos())
				if d.problem != "" {
					policy = append(policy, Diagnostic{
						Analyzer: "allow",
						Pos:      pos,
						Message:  d.problem,
					})
					continue
				}
				if !known[d.analyzer] {
					policy = append(policy, Diagnostic{
						Analyzer: "allow",
						Pos:      pos,
						Message:  fmt.Sprintf("lint:allow references unknown analyzer %q", d.analyzer),
					})
					continue
				}
				a := allow{file: pos.Filename, line: pos.Line, analyzer: d.analyzer}
				if fd, ok := funcDocs[cg]; ok {
					a.startLine = t.Fset.Position(fd.Pos()).Line
					a.endLine = t.Fset.Position(fd.End()).Line
					if fn, ok := t.Info.Defs[fd.Name].(*types.Func); ok && store != nil {
						exportAllowFact(store, d.analyzer, fn, d.reason)
					}
				}
				allows = append(allows, a)
			}
		}
	}
	return allows, policy
}

// exportAllowFact records a function-level allow as a fact on fn under the
// named analyzer, bypassing the Pass plumbing (allows are parsed by the
// driver, after the passes ran).
func exportAllowFact(store *factStore, analyzer string, fn *types.Func, reason string) {
	key, ok := objKey(fn)
	if !ok || fn.Pkg() == nil {
		return
	}
	store.m[factKey{
		analyzer: analyzer,
		pkg:      fn.Pkg().Path(),
		obj:      key,
		typ:      factTypeName(&AllowFact{}),
	}] = &AllowFact{Reason: reason}
}

func suppressed(d Diagnostic, allows []allow) bool {
	for _, a := range allows {
		if a.analyzer != d.Analyzer || a.file != d.Pos.Filename {
			continue
		}
		if a.endLine > 0 { // function-level
			if d.Pos.Line >= a.startLine && d.Pos.Line <= a.endLine {
				return true
			}
			continue
		}
		if a.line == d.Pos.Line || a.line == d.Pos.Line-1 {
			return true
		}
	}
	return false
}

// pathMatch reports whether a package import path is, or ends with, the
// given suffix — so the analyzers recognize both the real module packages
// (github.com/dcslib/dcs/internal/core) and testdata fixtures mounted under
// a fake module prefix (fix.example/internal/core).
func pathMatch(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// isRunstateState reports whether t is (a pointer to) the runstate.State
// type, matched structurally by package-path suffix so fixtures can supply
// their own stub runstate package.
func isRunstateState(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "State" || obj.Pkg() == nil {
		return false
	}
	return pathMatch(obj.Pkg().Path(), "internal/runstate") || obj.Pkg().Path() == "runstate"
}

// isMainPackage reports whether pkg is a binary entry point (package main,
// under cmd/ or examples/): binaries own their process lifetime and may mint
// root contexts, so ctxflow exempts them.
func isMainPackage(pkg *types.Package) bool {
	return pkg.Name() == "main"
}

// rootObj strips indexing, slicing, field selection and parens down to the
// base identifier's object: the variable an expression ultimately names.
func rootObj(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			// v[i].W → v; but pkg.Var or s.field roots at the selection.
			if _, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := pass.Info.Uses[x.X.(*ast.Ident)].(*types.PkgName); isPkg {
					return pass.Info.Uses[x.Sel]
				}
			}
			e = x.X
		case *ast.Ident:
			if obj := pass.Info.Uses[x]; obj != nil {
				return obj
			}
			return pass.Info.Defs[x]
		default:
			return nil
		}
	}
}

// selectorPkg returns the package name of a qualified selector pkg.X, or
// "" when sel.X is not a package name.
func selectorPkg(pass *Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Name()
	}
	return ""
}

// calleeAnyFunc resolves a call to its *types.Func target in any package,
// or nil for builtin and dynamic calls.
func calleeAnyFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}

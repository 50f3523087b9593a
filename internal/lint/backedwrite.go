// Analyzer backedwrite: CSR storage obtained from internal/graph must
// never be written outside internal/graph.
//
// The aliasing contract (PR 8): a Graph may be "backed" — its offsets, ids
// and weights arrays aliasing a read-only mmap of a .dcsg v2 file — and
// Graph.CSR on a plain graph returns the graph's live storage, shared by
// every concurrent request. A write through either is, at best, silent
// cross-request corruption and, on a mapped snapshot, a SIGSEGV.
//
// The analysis is a taint pass over each function outside internal/graph,
// made interprocedural by facts (driver v2): every function is summarized —
// which results alias CSR storage, which slice parameters it writes
// through, which it hands off to graph.FromCSRBacked — by a same-package
// fixpoint, the summaries are exported as facts, and call sites anywhere in
// the module (including other packages) are checked against them. A serve/
// helper that stores into a CSR obtained from a core/ accessor is caught
// even though neither function alone looks wrong.
//
//   - Sources: the results of a Graph.CSR call, the results of any call
//     whose CSRAliasFact lists them, and — from the call site onward — the
//     slice arguments handed to graph.FromCSRBacked or to a callee whose
//     CSRHandoffFact lists them (the caller transferred ownership; later
//     writes invalidate the verified invariants and may target a mapping).
//   - Propagation: aliasing assignments (y := x, y = x, y := x[i:j]).
//   - Sinks: element stores (x[i] = …, x[i].W = …, x[i]++), copy with a
//     tainted destination, append to a tainted slice (in-place when
//     len < cap), taking the address of an element, handing a tainted
//     slice to the sort/slices packages (in-place reordering), and passing
//     a tainted slice to any callee whose CSRWritesFact says it writes
//     through that parameter.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

var Backedwrite = &Analyzer{
	Name: "backedwrite",
	Doc:  "CSR storage from internal/graph (Graph.CSR results, FromCSRBacked inputs) must not be written outside internal/graph",
	Run:  runBackedwrite,
}

// CSRAliasFact marks a function whose listed results alias graph CSR
// storage: assigning them taints the destination in any caller.
type CSRAliasFact struct {
	Results []int
}

func (*CSRAliasFact) AFact() {}

// CSRHandoffFact marks a function that transfers ownership of the listed
// slice parameters to graph storage (it passes them, directly or
// transitively, to graph.FromCSRBacked): arguments at those positions are
// graph-owned from the call onward.
type CSRHandoffFact struct {
	Params []int
}

func (*CSRHandoffFact) AFact() {}

// CSRWritesFact marks a function that writes through the listed slice
// parameters (element stores, copy-into, clear, in-place sorts): passing a
// tainted slice at one of those positions is a write to backed storage.
type CSRWritesFact struct {
	Params []int
}

func (*CSRWritesFact) AFact() {}

// csrSummary is one function's interprocedural summary, the in-progress
// form of the three facts above.
type csrSummary struct {
	aliasResults  map[int]bool
	handoffParams map[int]bool
	writesParams  map[int]bool
}

func newCSRSummary() *csrSummary {
	return &csrSummary{
		aliasResults:  map[int]bool{},
		handoffParams: map[int]bool{},
		writesParams:  map[int]bool{},
	}
}

func (s *csrSummary) size() int {
	return len(s.aliasResults) + len(s.handoffParams) + len(s.writesParams)
}

func runBackedwrite(pass *Pass) error {
	if isGraphPackage(pass.Pkg.Path()) {
		return nil // the owning package manages its own storage
	}
	bw := &bwState{pass: pass, local: map[*types.Func]*csrSummary{}}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					bw.local[fn] = newCSRSummary()
				}
			}
		}
	}
	// Same-package fixpoint: summaries feed the taint seeds of their
	// callers (a helper returning CSR storage makes its caller's result
	// tainted too), so iterate until no summary grows.
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			before := bw.local[fn].size()
			bw.analyzeFunc(fd, bw.local[fn], false)
			if bw.local[fn].size() > before {
				changed = true
			}
		}
	}
	// Reporting pass, now that every local summary is final.
	for _, fd := range decls {
		fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
		sum := bw.local[fn]
		if sum == nil {
			sum = newCSRSummary()
		}
		bw.analyzeFunc(fd, sum, true)
	}
	// Export the non-empty summaries so dependent packages see them.
	for fn, sum := range bw.local {
		if len(sum.aliasResults) > 0 {
			pass.ExportObjectFact(fn, &CSRAliasFact{Results: sortedKeys(sum.aliasResults)})
		}
		if len(sum.handoffParams) > 0 {
			pass.ExportObjectFact(fn, &CSRHandoffFact{Params: sortedKeys(sum.handoffParams)})
		}
		if len(sum.writesParams) > 0 {
			pass.ExportObjectFact(fn, &CSRWritesFact{Params: sortedKeys(sum.writesParams)})
		}
	}
	return nil
}

func sortedKeys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort: tiny inputs
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

type bwState struct {
	pass  *Pass
	local map[*types.Func]*csrSummary
}

// calleeSummary resolves the backedwrite summary of a call's target: the
// in-progress local summary for same-package callees, imported facts for
// everything else. Returns nil when nothing is known.
func (bw *bwState) calleeSummary(call *ast.CallExpr) *csrSummary {
	fn := calleeAnyFunc(bw.pass, call)
	if fn == nil {
		return nil
	}
	if sum, ok := bw.local[fn]; ok {
		return sum
	}
	var alias CSRAliasFact
	var handoff CSRHandoffFact
	var writes CSRWritesFact
	sum := newCSRSummary()
	if bw.pass.ImportObjectFact(fn, &alias) {
		for _, i := range alias.Results {
			sum.aliasResults[i] = true
		}
	}
	if bw.pass.ImportObjectFact(fn, &handoff) {
		for _, i := range handoff.Params {
			sum.handoffParams[i] = true
		}
	}
	if bw.pass.ImportObjectFact(fn, &writes) {
		for _, i := range writes.Params {
			sum.writesParams[i] = true
		}
	}
	if sum.size() == 0 {
		return nil
	}
	return sum
}

// taintSet maps a slice variable to the position its contents became
// graph-owned; only uses at or after that position are violations.
type taintSet map[types.Object]token.Pos

// analyzeFunc runs the taint analysis over one function, growing sum (the
// function's summary) and, when report is set, emitting diagnostics at the
// sinks.
func (bw *bwState) analyzeFunc(fd *ast.FuncDecl, sum *csrSummary, report bool) {
	pass := bw.pass
	taint := taintSet{}
	params := paramObjects(pass, fd)
	paramIndex := map[types.Object]int{}
	for i, p := range params {
		paramIndex[p] = i
	}

	// Pass 1: seeds. CSR() and alias-fact results are tainted from the
	// assignment; FromCSRBacked and handoff-fact arguments from the call
	// onward.
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok {
					break
				}
				if isCSRCall(pass, call) {
					for _, lhs := range n.Lhs {
						if obj := assignedObj(pass, lhs); obj != nil && isSliceObj(obj) {
							taint[obj] = n.Pos()
						}
					}
					break
				}
				if sum := bw.calleeSummary(call); sum != nil && len(sum.aliasResults) > 0 {
					for i, lhs := range n.Lhs {
						// Single-value assignment of a single-result call, or
						// tuple assignment: LHS index i binds result i.
						if !sum.aliasResults[i] {
							continue
						}
						if obj := assignedObj(pass, lhs); obj != nil && isSliceObj(obj) {
							taint[obj] = n.Pos()
						}
					}
				}
			}
		case *ast.CallExpr:
			seedHandoff := func(indexes map[int]bool) {
				for i, arg := range n.Args {
					if indexes != nil && !indexes[i] {
						continue
					}
					obj := rootObj(pass, arg)
					if obj == nil || !isSliceObj(obj) {
						continue
					}
					if _, ok := taint[obj]; !ok {
						taint[obj] = n.End()
					}
					if pi, isParam := paramIndex[obj]; isParam {
						sum.handoffParams[pi] = true
					}
				}
			}
			if isFromCSRBackedCall(pass, n) {
				seedHandoff(nil) // every slice argument is adopted
			} else if cs := bw.calleeSummary(n); cs != nil && len(cs.handoffParams) > 0 {
				seedHandoff(cs.handoffParams)
			}
		}
		return true
	})

	// Pass 2: propagate through aliasing assignments to a fixpoint. The
	// alias inherits the source's taint position, so pre-handoff writes
	// through a pre-handoff alias stay legal.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(node ast.Node) bool {
			n, ok := node.(*ast.AssignStmt)
			if !ok || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				src := rootObj(pass, rhs)
				if src == nil {
					continue
				}
				pos, tainted := taint[src]
				if !tainted || !isSliceExpr(pass, rhs) {
					continue
				}
				if dst := assignedObj(pass, n.Lhs[i]); dst != nil && isSliceObj(dst) {
					if _, ok := taint[dst]; !ok {
						taint[dst] = pos
						changed = true
					}
				}
			}
			return true
		})
	}

	tainted := func(e ast.Expr) bool {
		obj := rootObj(pass, e)
		if obj == nil {
			return false
		}
		pos, ok := taint[obj]
		return ok && e.Pos() >= pos
	}
	reportAt := func(pos token.Pos, what string) {
		if report {
			pass.Reportf(pos, "%s: this slice aliases graph CSR storage, which may be a read-only mmap; writes outside internal/graph are a SIGSEGV or silent cross-request corruption", what)
		}
	}
	// noteWrite records a write through e for the summary (when the target
	// is a parameter) and reports it when the target is tainted.
	noteWrite := func(e ast.Expr, pos token.Pos, what string) {
		if obj := rootObj(pass, e); obj != nil {
			if pi, isParam := paramIndex[obj]; isParam && isSliceObj(obj) {
				sum.writesParams[pi] = true
			}
		}
		if tainted(e) {
			reportAt(pos, what)
		}
	}

	// Pass 3: sinks, summary growth, and returned-alias detection.
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isElementExpr(lhs) {
					noteWrite(lhs, lhs.Pos(), "write to backed CSR storage")
				}
			}
		case *ast.IncDecStmt:
			if isElementExpr(n.X) {
				noteWrite(n.X, n.X.Pos(), "write to backed CSR storage")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && isElementExpr(n.X) && tainted(n.X) {
				reportAt(n.Pos(), "address of backed CSR element escapes")
			}
		case *ast.ReturnStmt:
			for i, res := range n.Results {
				if obj := rootObj(pass, res); obj != nil && isSliceExpr(pass, res) {
					if pos, ok := taint[obj]; ok && res.Pos() >= pos {
						sum.aliasResults[i] = true
					}
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if len(n.Args) > 0 {
					switch fun.Name {
					case "copy":
						noteWrite(n.Args[0], n.Pos(), "copy into backed CSR storage")
					case "append":
						noteWrite(n.Args[0], n.Pos(), "append to backed CSR storage (writes in place when len < cap)")
					case "clear":
						noteWrite(n.Args[0], n.Pos(), "clear of backed CSR storage")
					}
				}
			case *ast.SelectorExpr:
				if pkg := selectorPkg(pass, fun); pkg == "sort" || pkg == "slices" {
					for _, arg := range n.Args {
						if obj := rootObj(pass, arg); obj != nil {
							if pi, isParam := paramIndex[obj]; isParam && isSliceObj(obj) {
								sum.writesParams[pi] = true
							}
						}
						if tainted(arg) {
							reportAt(n.Pos(), "in-place "+pkg+"."+fun.Sel.Name+" of backed CSR storage")
							break
						}
					}
				}
			}
			// Interprocedural sink: a tainted slice handed to a callee that
			// writes through that parameter.
			if cs := bw.calleeSummary(n); cs != nil && len(cs.writesParams) > 0 {
				for i, arg := range n.Args {
					if cs.writesParams[i] && tainted(arg) {
						reportAt(n.Pos(), "tainted slice passed to a callee that writes through it")
					}
				}
			}
		}
		return true
	})
}

// paramObjects returns the function's parameter objects in declaration
// order (receivers excluded: the fact indexes match the call's Args).
func paramObjects(pass *Pass, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed parameter still occupies a slot
			continue
		}
		for _, id := range field.Names {
			out = append(out, pass.Info.Defs[id])
		}
	}
	return out
}

// isCSRCall reports whether call is g.CSR() (or g.Materialize-free raw
// accessors of the same shape) on the graph package's Graph type.
func isCSRCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "CSR" {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && isGraphPackage(fn.Pkg().Path())
}

func isFromCSRBackedCall(pass *Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	if id.Name != "FromCSRBacked" {
		return false
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && isGraphPackage(fn.Pkg().Path())
}

// rootObj strips indexing, slicing, field selection and parens down to the
// base identifier's object: the storage a write ultimately lands in.
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

func assignedObj(pass *Pass, lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// isElementExpr reports whether e writes *through* a slice (x[i], x[i].W,
// x[i:j]...) rather than rebinding the slice header itself.
func isElementExpr(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr, *ast.SliceExpr:
			return true
		default:
			return false
		}
	}
}

func isSliceObj(obj types.Object) bool {
	_, ok := obj.Type().Underlying().(*types.Slice)
	return ok
}

func isSliceExpr(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

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

// Analyzer leakcheck: resource handles must reach their paired release.
//
// The serving path (PR 8/9) is built on handles with teardown obligations:
// dataio.OpenMapped returns an mmap that pins address space until Close;
// graph.FromCSRBacked adopts mapped storage that outlives requests unless
// Release runs; the snapshot memory manager hands out pins whose release
// funcs bound resident memory; time.NewTicker leaks a goroutine without
// Stop. A handle acquired and dropped is a slow leak that only shows up
// under production churn — exactly what a static check should catch.
//
// Within each function, an acquire is:
//
//   - a call to time.NewTicker (release: Stop);
//   - a call to dataio.OpenMapped (release: Close);
//   - a call to graph.FromCSRBacked (release: Release);
//   - any call yielding a niladic func value — the release-func idiom used
//     by the memory manager's pin/unpin, snapshot Acquire, admission
//     control, and context.WithCancel (release: invoke it);
//   - a call to a function exporting AcquiresFact — a wrapper that
//     acquires on its caller's behalf (so the obligation follows the
//     handle across package boundaries).
//
// The obligation is met when the handle is released on some path (a defer
// or a direct call — full path-sensitivity is traded for zero false
// positives), or when ownership demonstrably transfers: the handle is
// returned (the function then exports AcquiresFact itself), stored into a
// field, slice, map or channel, passed to another call, aliased, or
// captured by a closure. Discarding a release obligation outright — `_`
// for the release func, or an acquire used as a bare statement — is always
// a finding.
//
// In serve packages, additionally, every `go` statement must carry a stop
// or completion signal: the goroutine's body (or same-package callee) must
// contain a select, a channel operation, a Context.Done, a
// WaitGroup.Done, or a close — otherwise the goroutine is unstoppable and
// outlives Server.Close.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

var Leakcheck = &Analyzer{
	Name: "leakcheck",
	Doc:  "resource handles (mmaps, backed graphs, pins, tickers, release funcs) must reach their paired release on some path",
	Run:  runLeakcheck,
}

// AcquiresFact marks a function whose listed results are resource handles
// the caller must release — exported automatically for wrappers that
// acquire a handle and return it, so the obligation crosses package
// boundaries with the handle.
type AcquiresFact struct {
	Results []int
}

func (*AcquiresFact) AFact() {}

func isServePackage(path string) bool {
	return pathMatch(path, "serve")
}

func runLeakcheck(pass *Pass) error {
	serve := isServePackage(pass.Pkg.Path())
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkHandles(pass, fd)
			if serve {
				checkGoroutines(pass, fd)
			}
		}
	}
	return nil
}

// handle is one acquired resource being tracked through a function.
type handle struct {
	obj     types.Object
	release string // method name, or "" meaning "invoke the value"
	what    string // human name of the resource for the message
	pos     token.Pos
	retIdx  int // result index if the handle is returned, else -1
	ok      bool
}

// acquireKind classifies a call expression's results: which indexes are
// handles, and how each is released. Returns nil when the call acquires
// nothing.
func acquireKind(pass *Pass, call *ast.CallExpr) map[int]handle {
	out := map[int]handle{}
	// Named acquire functions.
	if fn := calleeAnyFunc(pass, call); fn != nil && fn.Pkg() != nil {
		path := fn.Pkg().Path()
		switch {
		case path == "time" && fn.Name() == "NewTicker":
			out[0] = handle{release: "Stop", what: "time.Ticker (leaks a goroutine without Stop)"}
		case pathMatch(path, "internal/dataio") && fn.Name() == "OpenMapped":
			out[0] = handle{release: "Close", what: "mapped file (pins address space until Close)"}
		case isGraphPackage(path) && fn.Name() == "FromCSRBacked":
			out[0] = handle{release: "Release", what: "backed graph (holds its mapping until Release)"}
		}
		var fact AcquiresFact
		if pass.ImportObjectFact(fn, &fact) {
			for _, i := range fact.Results {
				if _, dup := out[i]; !dup {
					out[i] = handle{what: "handle acquired by " + fn.Name()}
				}
			}
		}
	}
	// Release-func results: any niladic func() value handed back.
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return finishAcquire(out, pass, call)
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if _, dup := out[i]; dup {
			continue
		}
		if isReleaseFuncType(res.At(i).Type()) {
			out[i] = handle{what: "release func (dropping it leaks the underlying pin)"}
		}
	}
	return finishAcquire(out, pass, call)
}

// finishAcquire fills release method names from the handle's type when the
// acquire site did not fix one.
func finishAcquire(out map[int]handle, pass *Pass, call *ast.CallExpr) map[int]handle {
	if len(out) == 0 {
		return nil
	}
	sig, _ := pass.Info.TypeOf(call.Fun).(*types.Signature)
	for i, h := range out {
		if h.release != "" {
			continue
		}
		var t types.Type
		if sig != nil && i < sig.Results().Len() {
			t = sig.Results().At(i).Type()
		}
		h.release = releaseMethod(t)
		out[i] = h
	}
	return out
}

// releaseMethod picks the teardown method of a handle type: invoke for
// func values, else the first of Release/Close/Stop in its method set.
func releaseMethod(t types.Type) string {
	if t == nil {
		return ""
	}
	if isReleaseFuncType(t) {
		return ""
	}
	for _, name := range []string{"Release", "Close", "Stop"} {
		for _, T := range []types.Type{t, types.NewPointer(t)} {
			ms := types.NewMethodSet(T)
			for i := 0; i < ms.Len(); i++ {
				if ms.At(i).Obj().Name() == name {
					return name
				}
			}
		}
	}
	return ""
}

func isReleaseFuncType(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// checkHandles runs the acquire/release balance over one function and
// exports AcquiresFact when handles escape via return.
func checkHandles(pass *Pass, fd *ast.FuncDecl) {
	handles := map[types.Object]*handle{}

	// Pass 1: acquires bound to names; discarded obligations report now.
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			acq := acquireKind(pass, call)
			if acq == nil {
				return true
			}
			for i, lhs := range n.Lhs {
				h, isHandle := acq[i]
				if !isHandle {
					continue
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if id.Name == "_" {
					pass.Reportf(n.Pos(), "release obligation discarded: the %s is assigned to _, so it can never be released", h.what)
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj == nil {
					continue
				}
				h.obj, h.pos, h.retIdx = obj, n.Pos(), -1
				handles[obj] = &h
			}
			return true
		case *ast.ExprStmt:
			call, ok := ast.Unparen(n.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if acq := acquireKind(pass, call); acq != nil {
				for _, h := range acq {
					pass.Reportf(n.Pos(), "release obligation discarded: the %s returned here is never bound, so it can never be released", h.what)
				}
			}
		}
		return true
	})
	if len(handles) == 0 {
		return
	}

	// Pass 2: releases and ownership transfers.
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.CallExpr:
			// Direct release: h.Close() / h.Stop() / h.Release() or h().
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.SelectorExpr:
				if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
					if h := handles[identObj(pass, base)]; h != nil && fun.Sel.Name == h.release {
						h.ok = true
						return true
					}
				}
			case *ast.Ident:
				if h := handles[identObj(pass, fun)]; h != nil && h.release == "" {
					h.ok = true
					return true
				}
			}
			// Transfer: the handle passed onward as an argument.
			for _, arg := range n.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					if h := handles[identObj(pass, id)]; h != nil {
						h.ok = true
					}
				}
			}
		case *ast.ReturnStmt:
			for i, res := range n.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if h := handles[identObj(pass, id)]; h != nil {
						h.ok = true
						h.retIdx = i
					}
				}
			}
		case *ast.AssignStmt:
			// Transfer: stored into a field/element, aliased to another
			// name, or (for named results) assigned for a bare return.
			for i, rhs := range n.Rhs {
				id, ok := ast.Unparen(rhs).(*ast.Ident)
				if !ok {
					continue
				}
				h := handles[identObj(pass, id)]
				if h == nil {
					continue
				}
				if i < len(n.Lhs) && identObj2(pass, n.Lhs[i]) == h.obj {
					continue // x = x: not a transfer
				}
				h.ok = true
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				e := elt
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if id, ok := ast.Unparen(e).(*ast.Ident); ok {
					if h := handles[identObj(pass, id)]; h != nil {
						h.ok = true
					}
				}
			}
		case *ast.SendStmt:
			if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok {
				if h := handles[identObj(pass, id)]; h != nil {
					h.ok = true
				}
			}
		case *ast.FuncLit:
			// Closure capture: the closure owns (or releases) it now.
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if h := handles[identObj(pass, id)]; h != nil {
						h.ok = true
					}
				}
				return true
			})
			return false
		}
		return true
	})

	var returned []int
	for _, h := range handles {
		if h.retIdx >= 0 {
			returned = append(returned, h.retIdx)
		}
		if !h.ok {
			rel := "call its release func"
			if h.release != "" {
				rel = "call " + h.release
			}
			pass.Reportf(h.pos, "%s is acquired but never released on any path: defer or %s, or hand the handle off to an owner", h.what, rel)
		}
	}
	// A function returning a handle acquires on behalf of its callers.
	if len(returned) > 0 {
		if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
			seen := map[int]bool{}
			var idx []int
			for _, i := range returned {
				seen[i] = true
			}
			for i := range seen {
				idx = append(idx, i)
			}
			for i := 1; i < len(idx); i++ {
				for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
					idx[j], idx[j-1] = idx[j-1], idx[j]
				}
			}
			pass.ExportObjectFact(fn, &AcquiresFact{Results: idx})
		}
	}
}

func identObj(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return pass.Info.Defs[id]
}

func identObj2(pass *Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return identObj(pass, id)
}

// checkGoroutines enforces the serve-package rule: a `go` statement must
// have a stop or completion signal so Server.Close can actually converge.
func checkGoroutines(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		g, ok := node.(*ast.GoStmt)
		if !ok {
			return true
		}
		var body *ast.BlockStmt
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
			body = lit.Body
		} else if fn := calleeFunc(pass, g.Call); fn != nil {
			body = funcDeclBody(pass, fn)
		}
		if body == nil {
			// Cross-package or dynamic target: the callee owns its
			// lifecycle; nothing to check here.
			return true
		}
		if !hasStopSignal(pass, body) {
			pass.Reportf(g.Pos(), "goroutine has no stop or completion signal (no select, channel op, Done, or close): it cannot be shut down and will outlive Server.Close")
		}
		return true
	})
}

// funcDeclBody finds the body of a same-package function.
func funcDeclBody(pass *Pass, fn *types.Func) *ast.BlockStmt {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && pass.Info.Defs[fd.Name] == fn {
				return fd.Body
			}
		}
	}
	return nil
}

// hasStopSignal reports whether a goroutine body participates in any
// termination protocol: select, channel send/receive/range/close,
// Context.Done, WaitGroup.Done, or working under a context.Context (the
// cancel func then is the stop signal, and leakcheck separately guarantees
// it cannot be dropped).
func hasStopSignal(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(node ast.Node) bool {
		if found {
			return false
		}
		if e, ok := node.(ast.Expr); ok {
			if t := pass.Info.TypeOf(e); t != nil && isContextType(t) {
				found = true
				return false
			}
		}
		switch n := node.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && (sel.Sel.Name == "Done" || sel.Sel.Name == "Wait") {
				found = true
			}
		}
		return !found
	})
	return found
}

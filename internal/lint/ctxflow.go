// Analyzer ctxflow: cancellation must flow from the caller, never be
// manufactured in library code.
//
// The cancellation chain is ctx → runstate.State → solver checkpoint polls:
// the public API turns the caller's ctx into a State once, and every solver
// below it takes that State. Two calls silently sever the chain —
// everything downstream becomes uncancellable no matter what the caller
// passed. So:
//
//   - Library code — every package except package main (binary entry
//     points under cmd/ and examples/ own their root context) — must not
//     call context.Background or context.TODO. A deliberate exception
//     carries a `//lint:allow ctxflow -- ...` directive with its reason
//     (the one in the module is serve's detached async jobs).
//
//   - A function that has a ctx in scope must not call runstate.New(nil):
//     that State can never be cancelled, so the solver it is handed ignores
//     the caller's deadline and cancel signal. runstate.New(ctx) threads it.
package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "library code must not manufacture contexts (Background/TODO) and must not build an uncancellable runstate.State with a ctx in scope",
	Run:  runCtxflow,
}

func runCtxflow(pass *Pass) error {
	if isMainPackage(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			hasCtx := funcHasCtx(pass, fd)
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, made := contextConstructor(pass, call); made {
					pass.Reportf(call.Pos(), "context.%s() in library code severs the caller's cancellation chain: accept a ctx parameter and pass it through (binary entry points, package main, own root contexts; a deliberate exception carries a function-level lint:allow)", name)
				} else if hasCtx && isUncancellableState(pass, call) {
					pass.Reportf(call.Pos(), "ctx is in scope but runstate.New(nil) builds a State that can never be cancelled: call runstate.New(ctx) so cancellation reaches the solver")
				}
				return true
			})
		}
	}
	return nil
}

// isUncancellableState matches runstate.New(nil).
func isUncancellableState(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeAnyFunc(pass, call)
	if fn == nil || fn.Name() != "New" || fn.Pkg() == nil ||
		!strings.HasSuffix(fn.Pkg().Path(), "/internal/runstate") || len(call.Args) != 1 {
		return false
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	return ok && tv.IsNil()
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// contextConstructor matches context.Background() / context.TODO().
func contextConstructor(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return "", false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	return sel.Sel.Name, true
}

// funcHasCtx reports whether the function binds a context.Context — a
// parameter or local the author could have threaded.
func funcHasCtx(pass *Pass, fd *ast.FuncDecl) bool {
	has := false
	ast.Inspect(fd, func(node ast.Node) bool {
		if has {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj != nil {
			if _, isVar := obj.(*types.Var); isVar && isContextType(obj.Type()) {
				has = true
			}
		}
		return true
	})
	return has
}

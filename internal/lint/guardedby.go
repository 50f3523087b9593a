// Analyzer guardedby: `// guarded by <mu>` field annotations are checked
// against the code.
//
// A struct field carrying the comment `// guarded by mu` (trailing the
// field or in its doc comment) may only be accessed by functions that hold
// the named sibling mutex. "Holds" is approximated over the direct call
// graph, which the issue's contract sanctions:
//
//   - a function that calls <x>.mu.Lock() or <x>.mu.RLock() anywhere in its
//     body holds mu (region- and alias-insensitive: locking any value's mu
//     counts for all values of the type);
//   - a function with at least one same-package caller holds mu if every
//     direct caller holds it (the `fooLocked` helper idiom) — computed as a
//     fixpoint;
//   - a function literal launched with `go` is its own execution context
//     and holds nothing it does not lock itself; other literals run inline
//     and inherit their enclosing function;
//   - accesses to a struct the function itself just built from a composite
//     literal are exempt — the value is not shared yet.
//
// The annotation is self-limiting: packages without annotations produce no
// work, and it is checked within the declaring package only (every
// annotated field in the repo is unexported). The repo annotates serve and
// internal/evolve. Intentional unlocked accesses (e.g. reads serialized by
// a coarser lock) take `//lint:allow guardedby -- <reason>`.
package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

var Guardedby = &Analyzer{
	Name: "guardedby",
	Doc:  "fields annotated `// guarded by <mu>` may only be accessed holding the named mutex (direct-call-graph approximation)",
	Run:  runGuardedby,
}

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guardedField is one annotated field and the sibling mutex that guards it.
type guardedField struct {
	field *types.Var
	mutex *types.Var
}

func runGuardedby(pass *Pass) error {
	guarded := collectGuardedFields(pass)
	ctxs := buildLockContexts(pass)
	solveHolders(pass, ctxs)
	byObj := map[types.Object]guardedField{}
	for _, g := range guarded {
		byObj[g.field] = g
	}
	for _, c := range ctxs {
		fresh := freshLocals(pass, c)
		ast.Inspect(c.body, func(node ast.Node) bool {
			if inner := innerContextNode(c, node); inner {
				return false // goroutine literals are checked as their own context
			}
			sel, ok := node.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := pass.Info.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			g, ok := byObj[selection.Obj()]
			if !ok {
				return true
			}
			if c.holds[g.mutex] {
				return true
			}
			if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if obj := pass.Info.Uses[base]; obj != nil && fresh[obj] {
					return true // value built locally, not shared yet
				}
			}
			pass.Reportf(sel.Pos(), "field %s is guarded by %s, but %s neither locks it nor is only called with it held",
				g.field.Name(), g.mutex.Name(), c.name)
			return true
		})
	}
	return nil
}

// collectGuardedFields parses the annotations, validating that the named
// sibling exists and looks like a lock (has a Lock method).
func collectGuardedFields(pass *Pass) []guardedField {
	var out []guardedField
	for _, f := range pass.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			st, ok := node.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				name := annotationIn(field.Comment) // trailing comment
				if name == "" {
					name = annotationIn(field.Doc)
				}
				if name == "" {
					continue
				}
				mutex := findSiblingField(pass, st, name)
				if mutex == nil || !hasLockMethod(mutex.Type()) {
					pass.Reportf(field.Pos(), "guarded-by annotation names %q, which is not a sibling field with a Lock method", name)
					continue
				}
				for _, id := range field.Names {
					if v, ok := pass.Info.Defs[id].(*types.Var); ok {
						out = append(out, guardedField{field: v, mutex: mutex})
					}
				}
			}
			return true
		})
	}
	return out
}

func annotationIn(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
		return m[1]
	}
	return ""
}

func findSiblingField(pass *Pass, st *ast.StructType, name string) *types.Var {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name == name {
				if v, ok := pass.Info.Defs[id].(*types.Var); ok {
					return v
				}
			}
		}
	}
	return nil
}

func hasLockMethod(t types.Type) bool {
	for _, T := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(T)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == "Lock" {
				return true
			}
		}
	}
	return false
}

// lockContext is one execution context: a declared function, or a function
// literal launched in a goroutine (which does not inherit its parent's
// locks).
type lockContext struct {
	name   string
	fn     *types.Func // nil for goroutine literals
	body   *ast.BlockStmt
	gos    []*ast.FuncLit // goroutine literals owned by this context
	holds  map[*types.Var]bool
	direct map[*types.Var]bool
	calls  []*types.Func // same-package direct callees
}

// innerContextNode reports whether node starts a nested execution context
// of c (a goroutine literal), which is analyzed separately.
func innerContextNode(c *lockContext, node ast.Node) bool {
	if lit, ok := node.(*ast.FuncLit); ok {
		for _, g := range c.gos {
			if g == lit {
				return true
			}
		}
	}
	return false
}

func buildLockContexts(pass *Pass) []*lockContext {
	var ctxs []*lockContext
	var scan func(name string, fn *types.Func, body *ast.BlockStmt)
	scan = func(name string, fn *types.Func, body *ast.BlockStmt) {
		c := &lockContext{name: name, fn: fn, body: body,
			holds: map[*types.Var]bool{}, direct: map[*types.Var]bool{}}
		ast.Inspect(body, func(node ast.Node) bool {
			switch n := node.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					c.gos = append(c.gos, lit)
					scan("goroutine in "+name, nil, lit.Body)
					return false
				}
			case *ast.CallExpr:
				if mu := lockedMutex(pass, n); mu != nil {
					c.direct[mu] = true
					c.holds[mu] = true
				}
				if fn := calleeFunc(pass, n); fn != nil {
					c.calls = append(c.calls, fn)
				}
			}
			return true
		})
		// Goroutine bodies are scanned separately; drop their lock/call facts
		// from the parent by rescanning with them excluded.
		if len(c.gos) > 0 {
			c.direct = map[*types.Var]bool{}
			c.holds = map[*types.Var]bool{}
			c.calls = nil
			ast.Inspect(body, func(node ast.Node) bool {
				if innerContextNode(c, node) {
					return false
				}
				if n, ok := node.(*ast.CallExpr); ok {
					if mu := lockedMutex(pass, n); mu != nil {
						c.direct[mu] = true
						c.holds[mu] = true
					}
					if fn := calleeFunc(pass, n); fn != nil {
						c.calls = append(c.calls, fn)
					}
				}
				return true
			})
		}
		ctxs = append(ctxs, c)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			scan(fn.Name(), fn, fd.Body)
		}
	}
	return ctxs
}

// lockedMutex resolves `<expr>.mu.Lock()` / `.RLock()` to the mutex field's
// object, or nil.
func lockedMutex(pass *Pass, call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return nil
	}
	muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := pass.Info.Selections[muSel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	return selection.Obj().(*types.Var)
}

// solveHolders propagates "holds" through the direct call graph: a context
// with callers holds a mutex if every caller holds it. Goroutine contexts
// have no callers and keep only their direct locks.
func solveHolders(pass *Pass, ctxs []*lockContext) {
	callers := map[*types.Func][]*lockContext{}
	for _, c := range ctxs {
		for _, callee := range c.calls {
			callers[callee] = append(callers[callee], c)
		}
	}
	mutexes := map[*types.Var]bool{}
	for _, c := range ctxs {
		for mu := range c.direct {
			mutexes[mu] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, c := range ctxs {
			if c.fn == nil {
				continue // goroutine: inherits nothing
			}
			cs := callers[c.fn]
			if len(cs) == 0 {
				continue
			}
			for mu := range mutexes {
				if c.holds[mu] {
					continue
				}
				all := true
				for _, caller := range cs {
					if !caller.holds[mu] {
						all = false
						break
					}
				}
				if all {
					c.holds[mu] = true
					changed = true
				}
			}
		}
	}
}

// freshLocals returns local variables initialized from a composite literal
// in this context — values not yet visible to other goroutines.
func freshLocals(pass *Pass, c *lockContext) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(c.body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			e := ast.Unparen(rhs)
			if u, ok := e.(*ast.UnaryExpr); ok {
				e = ast.Unparen(u.X)
			}
			if _, ok := e.(*ast.CompositeLit); !ok {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.Info.Defs[id]; obj != nil {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	return fresh
}

// Analyzer loopcheck: every heavy solver loop must reach a runstate
// checkpoint.
//
// The cancellation contract (PR 3/6): the DCS problems are NP-hard, so a
// request can run arbitrarily long; solver loops therefore poll
// runstate.State at an amortized interval, and a cancelled run unwinds with
// a best-so-far partial. A loop that can iterate Ω(n) times without a
// reachable Checkpoint/Cancelled poll makes its whole duration
// uncancellable — exactly the regression this analyzer prevents.
//
// What is flagged, in the solver packages (internal/core, densest, egoscan,
// simplex, cores, oqc):
//
//   - A "graph-scale" loop is one whose trip count is not a small constant:
//     a range over a slice, map or non-constant int, or a classic for loop
//     bounded by a non-literal (or condition-only / infinite).
//   - A graph-scale loop is "heavy" when it can do graph-scale work per
//     iteration — it contains a nested graph-scale loop, calls a
//     same-package function that loops, or passes a function literal to a
//     callee (the VisitNeighbors callback-iteration idiom) — or when it is
//     condition-only/infinite (a convergence loop).
//   - A heavy loop must contain a reachable checkpoint: a direct
//     State.Checkpoint/Cancelled call, a call that passes a *runstate.State
//     onward, or a call to a same-package function that checkpoints
//     (computed as a fixpoint over the package's call graph).
//
// Loops nested inside a loop that already checkpoints every iteration are
// not re-flagged: per-iteration polling at the outer level is the pattern
// the measured ~1% overhead budget was set for. A heavy loop in a function
// with no *runstate.State in scope at all is reported with a message asking
// for the State to be threaded through the call path — that is a missing
// cancellation capability, not a missing call.
package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

var solverPkgSuffixes = []string{
	"internal/core",
	"internal/densest",
	"internal/egoscan",
	"internal/simplex",
	"internal/cores",
	"internal/oqc",
}

// constBoundMax is the largest literal loop bound still considered "small":
// well under runstate.Interval, so even a nest of such loops stays inside
// one amortization window.
const constBoundMax = 1024

var Loopcheck = &Analyzer{
	Name: "loopcheck",
	Doc:  "solver loops that can iterate Ω(n) times must reach a runstate checkpoint",
	Run:  runLoopcheck,
}

func isSolverPackage(path string) bool {
	for _, s := range solverPkgSuffixes {
		if pathMatch(path, s) {
			return true
		}
	}
	return false
}

func runLoopcheck(pass *Pass) error {
	if !isSolverPackage(pass.Pkg.Path()) {
		return nil
	}
	looping, checkpointing := packageCallFacts(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lc := &loopChecker{pass: pass, looping: looping, checkpointing: checkpointing,
				hasState: funcHasState(pass, fd)}
			lc.walk(fd.Body)
		}
	}
	return nil
}

type loopChecker struct {
	pass          *Pass
	looping       map[*types.Func]bool
	checkpointing map[*types.Func]bool
	hasState      bool
}

// walk descends statements top-down. A loop whose body reaches a checkpoint
// clears its entire subtree (the per-iteration poll covers inner loops); a
// heavy loop without one is reported once, at the outermost offending
// level.
func (lc *loopChecker) walk(n ast.Node) {
	ast.Inspect(n, func(node ast.Node) bool {
		body, graphScale, unbounded := lc.loopShape(node)
		if body == nil {
			return true
		}
		if lc.reachesCheckpoint(body) {
			return false // per-iteration poll covers everything inside
		}
		if graphScale && (unbounded || lc.isHeavyBody(body)) {
			if lc.hasState {
				lc.pass.Reportf(node.Pos(), "graph-scale loop without a reachable runstate checkpoint: poll State.Checkpoint (or call a checkpointing helper) inside the loop so cancellation can interrupt it")
			} else {
				lc.pass.Reportf(node.Pos(), "graph-scale loop with no *runstate.State in scope: thread a State through this call path and poll State.Checkpoint so cancellation can interrupt it")
			}
			return false // don't cascade reports onto inner loops
		}
		return true
	})
}

// loopShape classifies a node: returns the loop body (nil if not a loop),
// whether the trip count is graph-scale, and whether the loop is
// condition-only or infinite (a convergence loop, heavy by definition).
func (lc *loopChecker) loopShape(node ast.Node) (body *ast.BlockStmt, graphScale, unbounded bool) {
	switch s := node.(type) {
	case *ast.RangeStmt:
		t := lc.pass.Info.TypeOf(s.X)
		if t == nil {
			return s.Body, true, false
		}
		switch u := t.Underlying().(type) {
		case *types.Array:
			return s.Body, u.Len() > constBoundMax, false
		case *types.Chan:
			// Channel drains are producer-paced, not graph-paced.
			return s.Body, false, false
		case *types.Basic:
			if u.Info()&types.IsInteger != 0 {
				// range over int: constant small bounds are fine.
				if tv, ok := lc.pass.Info.Types[s.X]; ok && tv.Value != nil {
					if v, ok := constant.Int64Val(tv.Value); ok && v <= constBoundMax {
						return s.Body, false, false
					}
				}
				return s.Body, true, false
			}
			return s.Body, false, false
		default:
			return s.Body, true, false // slice, map
		}
	case *ast.ForStmt:
		if s.Cond == nil {
			return s.Body, true, true // for {}
		}
		if s.Init == nil && s.Post == nil {
			return s.Body, true, true // for cond {} — convergence loop
		}
		if bin, ok := s.Cond.(*ast.BinaryExpr); ok {
			for _, e := range []ast.Expr{bin.X, bin.Y} {
				if tv, ok := lc.pass.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
					if v, ok := constant.Int64Val(tv.Value); ok && v <= constBoundMax {
						return s.Body, false, false
					}
				}
			}
		}
		return s.Body, true, false
	}
	return nil, false, false
}

// isHeavyBody reports whether a loop body can itself do graph-scale work
// per iteration.
func (lc *loopChecker) isHeavyBody(body *ast.BlockStmt) bool {
	heavy := false
	ast.Inspect(body, func(node ast.Node) bool {
		if heavy {
			return false
		}
		if b, gs, ub := lc.loopShape(node); b != nil && (gs || ub) {
			heavy = true
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if _, ok := arg.(*ast.FuncLit); ok {
				heavy = true // callback iteration (VisitNeighbors etc.)
				return false
			}
		}
		if fn := calleeFunc(lc.pass, call); fn != nil && lc.looping[fn] {
			heavy = true
			return false
		}
		return true
	})
	return heavy
}

// reachesCheckpoint reports whether executing body can poll cancellation:
// a direct Checkpoint/Cancelled call on a runstate.State, a call passing a
// State onward, or a call to a same-package function that checkpoints.
func (lc *loopChecker) reachesCheckpoint(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(node ast.Node) bool {
		if found {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if (sel.Sel.Name == "Checkpoint" || sel.Sel.Name == "Cancelled") &&
				isRunstateState(lc.pass.Info.TypeOf(sel.X)) {
				found = true
				return false
			}
		}
		for _, arg := range call.Args {
			if t := lc.pass.Info.TypeOf(arg); t != nil && isRunstateState(t) {
				found = true // the callee owns the State now; assume it polls
				return false
			}
		}
		if fn := calleeFunc(lc.pass, call); fn != nil && lc.checkpointing[fn] {
			found = true
			return false
		}
		return true
	})
	return found
}

// funcHasState reports whether any identifier of type *runstate.State is
// defined or used inside the function (parameter, local, receiver field
// copy — anything the author could poll).
func funcHasState(pass *Pass, fd *ast.FuncDecl) bool {
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
		if obj != nil && isRunstateState(obj.Type()) {
			has = true
		}
		return true
	})
	return has
}

// calleeFunc resolves a call to its same-package *types.Func declaration,
// or nil for cross-package, builtin, and dynamic calls.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg {
		return nil
	}
	return fn
}

// packageCallFacts computes, as fixpoints over the package's direct call
// graph, which functions contain a graph-scale loop ("looping") and which
// poll a runstate checkpoint ("checkpointing").
func packageCallFacts(pass *Pass) (looping, checkpointing map[*types.Func]bool) {
	looping = map[*types.Func]bool{}
	checkpointing = map[*types.Func]bool{}
	type funcNode struct {
		fn   *types.Func
		decl *ast.FuncDecl
	}
	var nodes []funcNode
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			nodes = append(nodes, funcNode{fn, fd})
		}
	}
	lc := &loopChecker{pass: pass} // shape/Checkpoint helpers only
	// Seed with direct facts.
	for _, n := range nodes {
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			if b, gs, ub := lc.loopShape(node); b != nil && (gs || ub) {
				looping[n.fn] = true
			}
			if call, ok := node.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if (sel.Sel.Name == "Checkpoint" || sel.Sel.Name == "Cancelled") &&
						isRunstateState(pass.Info.TypeOf(sel.X)) {
						checkpointing[n.fn] = true
					}
				}
			}
			return true
		})
	}
	// Propagate through same-package calls to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			ast.Inspect(n.decl.Body, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass, call)
				if fn == nil {
					return true
				}
				if looping[fn] && !looping[n.fn] {
					looping[n.fn] = true
					changed = true
				}
				if checkpointing[fn] && !checkpointing[n.fn] {
					checkpointing[n.fn] = true
					changed = true
				}
				return true
			})
		}
	}
	return looping, checkpointing
}

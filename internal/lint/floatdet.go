// Analyzer floatdet: no order-dependent floating-point reduction over map
// iteration in solver or graph code.
//
// The determinism contract (PR 6/7): the parallel solvers and the
// incremental watch engine are asserted *bitwise* equivalent to their
// sequential oracles, and restored watches must replay identically. Go map
// iteration order is deliberately random, so folding floats in map order —
// or choosing an argmax while ranging over a map — makes two runs of the
// same solve differ in round-off or tie-breaks. The codebase's idiom is to
// sort the keys first (see simplex.Vector.Visit); this analyzer makes that
// idiom mandatory.
//
// Flagged, inside a `for … range m` where m is a map, in the solver
// packages plus internal/graph, internal/evolve and internal/topics:
//
//   - float accumulation into storage that outlives the iteration:
//     x += v, x -= v, x *= v, x /= v, and the spelled-out x = x + v forms,
//     when the right-hand side involves the range variables (a constant
//     contribution per entry is order-independent). The parameters of a
//     func literal count as range variables when the literal is passed to
//     a call whose other arguments use one — the visitor idiom
//     `g.VisitNeighbors(u, func(v int, w float64) { gain[v] += w })` folds
//     per-entry values just like a direct loop body;
//   - argmax/argmin selection: an if whose condition is an order comparison
//     involving the range *value* (or any float), whose body captures the
//     range *key* into outer storage — ties are then resolved by iteration
//     order. A pure `if v > best { best = v }` max over values is not
//     flagged: float min/max is commutative, only the identity of the
//     winner is order-dependent.
//
// The collect-then-sort idiom is recognized: `ks = append(ks, k)` inside
// the range is clean when ks is passed to a sort/slices call after the
// range in the same function — the sort erases the iteration order before
// anything order-sensitive reads the slice.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

var floatdetPkgSuffixes = append([]string{
	"internal/graph",
	"internal/evolve",
	"internal/topics",
}, solverPkgSuffixes...)

var Floatdet = &Analyzer{
	Name: "floatdet",
	Doc:  "no order-dependent float accumulation or argmax selection while ranging over a map (bitwise determinism contract)",
	Run:  runFloatdet,
}

func runFloatdet(pass *Pass) error {
	match := false
	for _, s := range floatdetPkgSuffixes {
		if pathMatch(pass.Pkg.Path(), s) {
			match = true
			break
		}
	}
	if !match {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			rng, ok := node.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.Info.TypeOf(rng.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					checkMapRange(pass, rng)
				}
			}
			return true
		})
	}
	return nil
}

func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	keyObj := rangeVarObj(pass, rng.Key)
	valObj := rangeVarObj(pass, rng.Value)
	inRange := func(pos token.Pos) bool { return pos >= rng.Pos() && pos <= rng.End() }

	// outerStorage: the write's root object lives beyond one iteration —
	// declared before the range statement (or package-level).
	outerStorage := func(lhs ast.Expr) bool {
		obj := rootObj(pass, lhs)
		return obj != nil && !inRange(obj.Pos())
	}
	usesVar := func(e ast.Expr, obj types.Object) bool {
		if e == nil || obj == nil {
			return false
		}
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return found
	}
	// rangeVars starts as the key and value and gains the parameters of
	// func literals handed to a call along with a range-derived argument.
	// Inspect visits a call before the literal bodies among its arguments,
	// so nested visitors chain.
	rangeVars := map[types.Object]bool{}
	for _, obj := range []types.Object{keyObj, valObj} {
		if obj != nil {
			rangeVars[obj] = true
		}
	}
	usesRangeVars := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && rangeVars[pass.Info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}

	ast.Inspect(rng.Body, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.CallExpr:
			markVisitorParams(pass, n, usesRangeVars, rangeVars)
		case *ast.AssignStmt:
			checkAccumulation(pass, n, outerStorage, usesRangeVars)
		case *ast.IfStmt:
			checkArgmax(pass, n, rng, keyObj, valObj, outerStorage, usesVar)
		}
		return true
	})
}

// markVisitorParams adds to rangeVars the parameters of every func literal
// argument of call when another argument is range-derived: the callee
// invokes the literal with values computed from that argument.
func markVisitorParams(pass *Pass, call *ast.CallExpr, usesRangeVars func(ast.Expr) bool, rangeVars map[types.Object]bool) {
	var lits []*ast.FuncLit
	fed := false
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			lits = append(lits, lit)
		} else if usesRangeVars(arg) {
			fed = true
		}
	}
	if !fed {
		return
	}
	for _, lit := range lits {
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					rangeVars[obj] = true
				}
			}
		}
	}
}

// sortedAfter reports whether obj is handed to a sort/slices call somewhere
// after pos in the function enclosing rng — the collect-then-sort idiom,
// which normalizes away the iteration order.
func sortedAfter(pass *Pass, rng *ast.RangeStmt, obj types.Object) bool {
	fn := enclosingFuncBody(pass, rng)
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg := selectorPkg(pass, sel); pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// enclosingFuncBody finds the innermost function body containing n.
func enclosingFuncBody(pass *Pass, n ast.Node) *ast.BlockStmt {
	var body *ast.BlockStmt
	for _, f := range pass.Files {
		if n.Pos() < f.Pos() || n.Pos() > f.End() {
			continue
		}
		ast.Inspect(f, func(node ast.Node) bool {
			var b *ast.BlockStmt
			switch fn := node.(type) {
			case *ast.FuncDecl:
				b = fn.Body
			case *ast.FuncLit:
				b = fn.Body
			}
			if b != nil && b.Pos() <= n.Pos() && n.End() <= b.End() {
				body = b // keep descending: innermost wins
			}
			return true
		})
	}
	return body
}

// checkAccumulation flags float `x op= v` and `x = x op v` folds into outer
// storage whose contribution depends on the range variables.
func checkAccumulation(pass *Pass, n *ast.AssignStmt, outerStorage func(ast.Expr) bool, usesRangeVars func(ast.Expr) bool) {
	switch n.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := n.Lhs[0]
		if isFloatExpr(pass, lhs) && outerStorage(lhs) && usesRangeVars(n.Rhs[0]) {
			pass.Reportf(n.Pos(), "floating-point accumulation in map iteration order breaks bitwise determinism: iterate sorted keys instead (see simplex.Vector.Visit)")
		}
	case token.ASSIGN:
		for i, lhs := range n.Lhs {
			if i >= len(n.Rhs) {
				break
			}
			bin, ok := ast.Unparen(n.Rhs[i]).(*ast.BinaryExpr)
			if !ok || !isFloatExpr(pass, lhs) || !outerStorage(lhs) {
				continue
			}
			switch bin.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
			default:
				continue
			}
			lobj := rootObj(pass, lhs)
			if lobj == nil {
				continue
			}
			reuses := false
			for _, operand := range []ast.Expr{bin.X, bin.Y} {
				if id, ok := ast.Unparen(operand).(*ast.Ident); ok && pass.Info.Uses[id] == lobj {
					reuses = true
				}
			}
			if reuses && usesRangeVars(n.Rhs[i]) {
				pass.Reportf(n.Pos(), "floating-point accumulation in map iteration order breaks bitwise determinism: iterate sorted keys instead (see simplex.Vector.Visit)")
			}
		}
	}
}

// checkArgmax flags `if <order comparison on value/floats> { … outer = f(key) … }`:
// the selected key then depends on map iteration order whenever two entries
// tie on the compared quantity.
func checkArgmax(pass *Pass, n *ast.IfStmt, rng *ast.RangeStmt, keyObj, valObj types.Object,
	outerStorage func(ast.Expr) bool, usesVar func(ast.Expr, types.Object) bool) {
	orderDep := false
	ast.Inspect(n.Cond, func(c ast.Node) bool {
		bin, ok := c.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch bin.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			if usesVar(bin.X, valObj) || usesVar(bin.Y, valObj) ||
				isFloatExpr(pass, bin.X) || isFloatExpr(pass, bin.Y) {
				orderDep = true
				return false
			}
		}
		return true
	})
	if !orderDep || keyObj == nil {
		return
	}
	ast.Inspect(n.Body, func(b ast.Node) bool {
		as, ok := b.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			var rhs ast.Expr
			switch {
			case len(as.Rhs) == len(as.Lhs):
				rhs = as.Rhs[i]
			case len(as.Rhs) == 1:
				rhs = as.Rhs[0]
			}
			if rhs != nil && usesVar(rhs, keyObj) && outerStorage(lhs) {
				if isSelfAppend(pass, as, i) {
					if obj := rootObj(pass, lhs); obj != nil && sortedAfter(pass, rng, obj) {
						continue // collect-then-sort: order normalized below
					}
				}
				pass.Reportf(as.Pos(), "argmax over map iteration captures the range key: ties are broken by random iteration order, breaking determinism — iterate sorted keys instead")
				return false
			}
		}
		return true
	})
}

// isSelfAppend reports whether the i-th assignment pair is `x = append(x, …)`.
func isSelfAppend(pass *Pass, as *ast.AssignStmt, i int) bool {
	if i >= len(as.Rhs) {
		i = 0
	}
	call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	dst := rootObj(pass, as.Lhs[i])
	return dst != nil && dst == rootObj(pass, call.Args[0])
}

func rangeVarObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.Info.Defs[id]
}

func isFloatExpr(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// Fixture for the floatdet analyzer: order-dependent float folds and argmax
// selections over map iteration in a solver package.
package core

import "sort"

// Compound float accumulation in map order: flagged.
func foldCompound(m map[int]float64) float64 {
	var s float64
	for _, v := range m {
		s += v // want "floating-point accumulation in map iteration order"
	}
	return s
}

// The spelled-out form is the same fold.
func foldSpelled(m map[int]float64) float64 {
	var s float64
	for _, v := range m {
		s = s + v // want "floating-point accumulation in map iteration order"
	}
	return s
}

// Multiplicative folds are order-dependent too (round-off).
func foldProduct(m map[int]float64) float64 {
	p := 1.0
	for _, v := range m {
		p *= v // want "floating-point accumulation in map iteration order"
	}
	return p
}

// Argmax over a map captures the winning key by iteration order on ties.
func argmax(m map[int]float64) int {
	best, arg := -1.0, -1
	for k, v := range m {
		if v > best {
			best, arg = v, k // want "argmax over map iteration captures the range key"
		}
	}
	return arg
}

// A pure max over values is commutative: only the winner's identity is
// order-dependent, and no key is captured here.
func pureMax(m map[int]float64) float64 {
	best := -1.0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// Collect-then-sort: the keys picked under a float threshold are sorted
// before anything order-sensitive reads them — the repo's sanctioned idiom.
func collectThenSort(m map[int]float64, cut float64) []int {
	var zs []int
	for k, v := range m {
		if v > cut {
			zs = append(zs, k)
		}
	}
	sort.Ints(zs)
	return zs
}

// The same collect WITHOUT the sort keeps the iteration order: flagged.
func collectNoSort(m map[int]float64, cut float64) []int {
	var zs []int
	for k, v := range m {
		if v > cut {
			zs = append(zs, k) // want "argmax over map iteration captures the range key"
		}
	}
	return zs
}

// Integer accumulation carries no round-off: not flagged.
func countEntries(m map[int]float64) int {
	n := 0
	for k := range m {
		n += k
	}
	return n
}

// A per-entry constant contribution is order-independent.
func constantFold(m map[int]float64) float64 {
	var s float64
	for range m {
		s += 1.0
	}
	return s
}

// Accumulating into iteration-local storage dies with the iteration.
func localFold(m map[int]float64, out []float64) {
	for k, v := range m {
		x := 0.0
		x += v
		out[k] = x
	}
}

// Ranging a slice is deterministic; only maps randomize.
func sliceFold(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

// graph stands in for the CSR graph's neighbor visitor.
type graph struct{ adj [][]int }

func (g *graph) VisitNeighbors(u int, f func(v int, w float64)) {
	for _, v := range g.adj[u] {
		f(v, 1)
	}
}

// A visitor closure fed the range key folds per-entry values just like a
// direct loop body: the gains sum in map order.
func visitorFold(g *graph, in map[int]bool) map[int]float64 {
	gain := make(map[int]float64)
	for u := range in {
		g.VisitNeighbors(u, func(v int, w float64) {
			if !in[v] {
				gain[v] += w // want "floating-point accumulation in map iteration order"
			}
		})
	}
	return gain
}

// Visitors nest: the inner literal is fed the outer literal's parameter.
func nestedVisitorFold(g *graph, in map[int]bool) float64 {
	var s float64
	for u := range in {
		g.VisitNeighbors(u, func(v int, _ float64) {
			g.VisitNeighbors(v, func(_ int, w float64) {
				s += w // want "floating-point accumulation in map iteration order"
			})
		})
	}
	return s
}

// A visitor not fed from the range makes the same contribution on every
// entry: order-independent, not flagged.
func unfedVisitorFold(g *graph, in map[int]bool) float64 {
	var s float64
	for range in {
		g.VisitNeighbors(0, func(_ int, w float64) {
			s += w
		})
	}
	return s
}

// Accumulating into the closure's own storage dies with the call.
func localVisitorFold(g *graph, in map[int]bool, out []float64) {
	for u := range in {
		g.VisitNeighbors(u, func(v int, w float64) {
			x := 0.0
			x += w
			out[v] = x
		})
	}
}

// Integer accumulation in a visitor carries no round-off.
func countVisitor(g *graph, in map[int]bool) int {
	n := 0
	for u := range in {
		g.VisitNeighbors(u, func(v int, _ float64) {
			n += v
		})
	}
	return n
}

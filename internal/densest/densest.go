// Package densest solves the *traditional* densest-subgraph problem — all
// edge weights positive — exactly and approximately.
//
// The DCS paper builds on two classical results for positive-weight graphs:
// Goldberg's polynomial-time exact algorithm via minimum cuts [12] and
// Charikar's greedy 2-approximation [7]. DCSGreedy (Algorithm 2) runs the
// greedy on GD and GD+; its data-dependent ratio 2ρ_{D+}(S2)/ρ_D(S) relies on
// the 2-approximation guarantee holding on GD+. This package provides both
// algorithms: Exact is the oracle used in tests and ablations, Greedy is the
// production peeling routine reused by the core DCS algorithms.
//
// Density convention: the paper's ρ(S) = W(S)/|S| where W(S) counts every
// undirected edge twice (once per direction); see graph.TotalDegreeOf. Both
// functions here report that convention.
package densest

import (
	"math"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/maxflow"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/vheap"
)

// Result is a dense subgraph along with its density.
type Result struct {
	S       []int   // vertex set, increasing order
	Density float64 // ρ(S) = W(S)/|S|, paper convention (edges counted twice)
}

// Greedy is Charikar's peeling algorithm (Algorithm 1 of the paper) run on a
// graph that may have positive or negative weights: repeatedly remove the
// vertex with minimum weighted degree, remember the best prefix. On graphs
// with only positive weights the result is a 2-approximation of the maximum
// average degree. Runs in O((m+n) log n) using an indexed heap.
//
// The empty graph yields an empty result; an edgeless graph yields a single
// vertex with density 0. The peel runs on a fresh Peeler; see Peeler.Peel
// for the loop and its cancellation.
func Greedy(rs *runstate.State, g *graph.Graph) Result {
	var p Peeler
	return p.Peel(rs, g, nil)
}

// Peeler is the peel engine with its workspace: one indexed heap and the
// per-vertex arrays of a peel. A solver that peels many graphs in a row (G_D
// then G_D⁺, every top-k pick, every ratio probe) keeps one Peeler and
// allocates the arrays once, growing them only for a larger graph. The zero
// value is ready to use; a Peeler is not safe for concurrent use.
type Peeler struct {
	heap    vheap.Heap
	deg     []float64 // initial weighted degree per vertex
	cid     []int32   // connected-component id per vertex
	stack   []int32   // discovery stack
	td      []float64 // total degree per component
	removed []int32   // removal order
	keep    []bool
}

// Peel runs the greedy peel of g and returns the best prefix, with S built
// in S's storage when its capacity suffices (nil allocates).
//
// One depth-first sweep over the CSR rows numbers the connected components
// (in order of smallest member) and sums each vertex's initial weighted
// degree; W(V) is then summed per component in ascending vertex order, and
// over the components in order. That association is part of the output
// bits: the density of every prefix derives from it. The loop pops the
// vertex of minimum (degree, id) from one heap over all n vertices, drops
// 2·degree from W and lowers each visible neighbour still in the heap by
// the edge weight, keeping the best prefix seen. Rows are read straight
// from the CSR arrays with the view mask applied inline (see graph.CSR),
// whoever owns them — the heap or a file mapping; a masked vertex has no
// visible edge, so it pops at degree 0 without its row being walked.
//
// Cancellation is cooperative: the sweep checkpoints once per component
// root and the loop once per pop. A sweep cut short returns the single
// vertex 0 (density 0); a loop cut short keeps the best prefix evaluated so
// far — a valid subgraph with an exact density, never empty.
func (p *Peeler) Peel(rs *runstate.State, g *graph.Graph, S []int) Result {
	n := g.N()
	if n == 0 {
		return Result{S: S[:0]}
	}
	off, ids, ws, drop := g.CSR()
	cid := grow(p.cid, n)
	for i := range cid {
		cid[i] = -1
	}
	deg := grow(p.deg, n)
	clear(deg)
	p.cid, p.deg = cid, deg
	nc := int32(0)
	for v := range cid {
		if cid[v] >= 0 {
			continue
		}
		if rs.Checkpoint() {
			// A partial sweep leaves degrees unset: fall back to the
			// degenerate single-vertex answer of Algorithm 2 (density 0).
			return Result{S: append(S[:0], 0)}
		}
		cid[v] = nc
		nc++
		if drop != nil && drop[v] {
			continue // a masked vertex has no visible edge
		}
		p.stack = append(p.stack[:0], int32(v))
		for len(p.stack) > 0 {
			u := p.stack[len(p.stack)-1]
			p.stack = p.stack[:len(p.stack)-1]
			var d float64
			lo, hi := off[u], off[u+1]
			row := ws[lo:hi]
			for i, to := range ids[lo:hi] {
				if drop != nil && drop[to] {
					continue
				}
				d += row[i]
				if cid[to] < 0 {
					cid[to] = cid[v]
					p.stack = append(p.stack, to)
				}
			}
			deg[u] = d
		}
	}
	// W(S) in the paper convention is the sum of in-subgraph weighted degrees.
	td := grow(p.td, n)[:nc]
	clear(td)
	p.td = td
	for v, c := range cid {
		td[c] += deg[v]
	}
	var totalDeg float64
	for _, d := range td {
		totalDeg += d
	}

	h := &p.heap
	h.Reset(deg)
	bestDensity := math.Inf(-1)
	bestSize := 0
	removed := grow(p.removed, n)[:0]
	p.removed = removed
	for size := n; size >= 1; size-- {
		// ≥ so that ties prefer the smaller prefix: on a graph with no positive
		// edge the result is then a single vertex (density 0), matching the
		// degenerate case of Algorithm 2.
		if rho := totalDeg / float64(size); rho >= bestDensity {
			bestDensity = rho
			bestSize = size
		}
		if rs.Checkpoint() {
			break // after ≥1 evaluation, so bestSize is set and the keep slice is consistent
		}
		v, dv := h.PopMin()
		removed = append(removed, int32(v))
		// Removing v: v's degree leaves W once, and every remaining neighbor
		// loses w(u,v) from its degree — so W(S) drops by 2·dv in total.
		totalDeg -= 2 * dv
		if drop != nil && drop[v] {
			continue
		}
		lo, hi := off[v], off[v+1]
		row := ws[lo:hi]
		for i, to := range ids[lo:hi] {
			if (drop == nil || !drop[to]) && h.Contains(int(to)) {
				h.Add(int(to), -row[i])
			}
		}
	}
	// The best prefix keeps the vertices *not yet removed* when |S| == bestSize,
	// i.e. everything except the first n-bestSize removals.
	keep := grow(p.keep, n)
	p.keep = keep
	for v := range keep {
		keep[v] = true
	}
	for _, v := range removed[:n-bestSize] {
		keep[v] = false
	}
	if cap(S) < bestSize {
		S = make([]int, 0, bestSize)
	}
	S = S[:0]
	for v, in := range keep {
		if in {
			S = append(S, v)
		}
	}
	return Result{S: S, Density: bestDensity}
}

// grow returns s resliced to length n, reallocated only when too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Exact computes the maximum-average-degree subgraph of a graph with
// non-negative edge weights using Goldberg's binary search over minimum cuts.
// It panics if g has a negative edge weight — for graphs with negative
// weights the problem is NP-hard (Theorem 1 of the paper) and Greedy or the
// core DCS algorithms must be used instead.
//
// The returned density follows the paper convention (each edge counted
// twice). Intended for validation on small-to-medium graphs: each probe of
// the binary search solves one max-flow on a network with n+2 vertices and
// m+2n arcs.
func Exact(g *graph.Graph) Result {
	n := g.N()
	if n == 0 {
		return Result{}
	}
	var sumW float64 // undirected sum
	g.VisitEdges(func(u, v int, w float64) {
		if w < 0 {
			panic("densest: Exact requires non-negative edge weights")
		}
		sumW += w
	})
	if sumW == 0 {
		return Result{S: []int{0}, Density: 0}
	}
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		deg[v] = g.WeightedDegree(v)
	}

	// Binary search on the undirected density gU = W_undirected(S)/|S|.
	// Feasibility test: exists S with W_u(S) > gU·|S| ⇔ min cut < sumW in the
	// standard Goldberg network. Two distinct achievable densities differ by
	// at least 1/(n(n-1)) when weights are integers; for float weights we
	// iterate to a fixed relative precision and return the best cut found.
	lo, hi := 0.0, sumW
	var bestS []int
	probe := func(gU float64) []int {
		// Network: s=n, t=n+1.
		fn := maxflow.New(n + 2)
		s, t := n, n+1
		for v := 0; v < n; v++ {
			fn.AddArc(s, v, sumW)
			fn.AddArc(v, t, sumW+2*gU-deg[v])
		}
		g.VisitEdges(func(u, v int, w float64) {
			fn.AddEdge(u, v, w)
		})
		fn.Solve(s, t)
		side := fn.MinCutSide(s)
		var S []int
		for v := 0; v < n; v++ {
			if side[v] {
				S = append(S, v)
			}
		}
		return S
	}
	// 64 iterations give ~2^-64 relative precision: far below any meaningful
	// density gap for float64 weights.
	for it := 0; it < 64 && hi-lo > 1e-12*(1+hi); it++ {
		mid := (lo + hi) / 2
		S := probe(mid)
		if len(S) > 0 {
			bestS = S
			lo = mid
		} else {
			hi = mid
		}
	}
	if bestS == nil {
		// Even density 0+ was infeasible numerically: fall back to best single
		// vertex (density 0) — can only happen with all-zero weights, handled
		// above, but keep a safe fallback.
		bestS = []int{0}
	}
	return Result{S: bestS, Density: g.AverageDegreeOf(bestS)}
}

// BruteForce scans all non-empty subsets (n ≤ 24) for the maximum average
// degree, honoring negative weights. Test oracle only.
func BruteForce(g *graph.Graph) Result {
	n := g.N()
	if n == 0 {
		return Result{}
	}
	if n > 24 {
		panic("densest: BruteForce limited to n ≤ 24")
	}
	best := Result{Density: math.Inf(-1)}
	//lint:allow loopcheck -- test-only oracle, hard-capped at n ≤ 24 subsets above
	for mask := 1; mask < 1<<uint(n); mask++ {
		var S []int
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				S = append(S, v)
			}
		}
		if rho := g.AverageDegreeOf(S); rho > best.Density {
			best = Result{S: S, Density: rho}
		}
	}
	return best
}

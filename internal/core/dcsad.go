// Package core implements the algorithms of "Mining Density Contrast
// Subgraphs" (Yang et al., ICDE 2018): DCSGreedy for the average-degree
// variant (DCSAD, Section IV) and the SEACD / Refinement / NewSEA family for
// the graph-affinity variant (DCSGA, Section V), together with the original
// SEA algorithm of Liu et al. used as the paper's baseline.
//
// Every algorithm consumes a difference graph GD (see graph.Difference); edge
// weights may be negative. Density conventions follow the paper exactly:
// W(S) counts each undirected edge once per direction, so ρ(S) = W(S)/|S| is
// the average weighted degree and a unit-weight k-clique has ρ = k−1.
package core

import (
	"sort"

	"github.com/dcslib/dcs/internal/densest"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/par"
	"github.com/dcslib/dcs/internal/runstate"
)

// ADResult is the outcome of a DCSAD computation.
type ADResult struct {
	S              []int   // the density contrast subgraph, increasing order
	Density        float64 // ρ_D(S) = W_D(S)/|S|, the density difference
	TotalWeight    float64 // W_D(S), the paper's total edge weight difference
	EdgeDensity    float64 // W_D(S)/|S|², edge-density difference
	Ratio          float64 // data-dependent approximation ratio β = 2ρ_{D+}(S2)/ρ_D(S)
	PositiveClique bool    // is GD(S) a positive clique?
	Connected      bool    // is GD(S) connected? (always true for DCSGreedy)
	// Interrupted marks a cancelled run: S is the best subgraph found before
	// the cancellation. All metrics above still describe S exactly; only the
	// approximation certificate is lost (Ratio is then 0, since the Theorem 2
	// bound needs a completed greedy pass over GD+).
	Interrupted bool
}

func newADResult(gd *graph.Graph, S []int, ratio float64) ADResult {
	sorted := make([]int, len(S))
	copy(sorted, S)
	sort.Ints(sorted)
	w, density, edgeDensity := gd.SubgraphMetrics(sorted)
	return ADResult{
		S:              sorted,
		Density:        density,
		TotalWeight:    w,
		EdgeDensity:    edgeDensity,
		Ratio:          ratio,
		PositiveClique: gd.IsPositiveClique(sorted),
		Connected:      gd.IsConnected(sorted),
	}
}

// DCSGreedy is Algorithm 2 of the paper: the O(n)-approximation for DCSAD
// with a data-dependent ratio. Given the difference graph GD it
//
//  1. returns a single vertex when GD has no positive edge (optimum is 0);
//  2. otherwise considers three candidates — the maximum-weight edge
//     (a 1/(n−1)-optimal solution), Greedy(GD) and Greedy(GD+) — and keeps
//     the one with the highest density in GD;
//  3. refines a disconnected winner to its best connected component
//     (Property 1 guarantees this never lowers the density);
//  4. reports the data-dependent ratio β = 2ρ_{D+}(S2)/ρ_D(S) (Theorem 2).
//
// Total cost is O((m+n) log n).
//
// At workers > 1 the Greedy(GD) and Greedy(GD+) peels run concurrently, each
// on its own densest.Peeler; everything else — the candidate comparison,
// component refinement and certificate arithmetic — stays sequential, so the
// result is bitwise identical at every degree. When rs is cancelled the
// peels stop within one checkpoint interval, each keeping the best prefix it
// evaluated, and the best candidate is returned, tagged Interrupted (with no
// approximation certificate).
func DCSGreedy(rs *runstate.State, gd *graph.Graph, workers int) ADResult {
	return dcsGreedy(rs, gd, nil, workers, new(adScratch))
}

// adScratch is the per-solve workspace of the average-degree solvers: the
// peel engines, the candidate buffers they fill, and the storage a GD+ that
// cannot be memoized is rebuilt into. One is allocated per solve and reused
// by every Algorithm 2 run in it — both candidate peels, every top-k pick,
// every ratio probe — so those allocate nothing graph-sized after the first.
// Parallel paths give each concurrent task its own adScratch or Peeler.
type adScratch struct {
	peel   [2]densest.Peeler // [1] serves only the concurrent GD+ peel
	s1, s2 []int             // the Greedy(GD) and Greedy(GD+) candidates
	edge   [2]int            // the maximum-edge candidate
	gdp    graph.Graph       // GD+ of a view or of a reused GD
	gd     graph.Graph       // the ratio search's probe GD
	sorted []int             // a probe's winner, sorted
}

// dcsGreedy runs Algorithm 2 on ws. gdp is GD's positive part when the
// caller maintains one (top-k masks it alongside GD), nil to derive it.
func dcsGreedy(rs *runstate.State, gd, gdp *graph.Graph, workers int, ws *adScratch) ADResult {
	maxEdge, ok := gd.MaxEdge()
	if !ok || maxEdge.W <= 0 {
		// No positive edge: any single vertex is optimal with density 0.
		if gd.N() == 0 {
			return ADResult{Ratio: 1, PositiveClique: true, Connected: true}
		}
		return newADResult(gd, []int{0}, 1)
	}
	if gdp == nil {
		// Materialize GD+ once (single pass): Greedy makes several full
		// passes over it, which a plain CSR serves without per-edge filtering.
		gdp = gd.PositivePartInto(&ws.gdp)
	}
	best, ratio := ws.pick(gd, gdp, maxEdge, rs, workers)
	res := newADResult(gd, best, ratio)
	res.Interrupted = rs.Interrupted()
	return res
}

// pick runs Algorithm 2 on a GD with a positive maximum edge, given its
// positive part gdp, up to the winner: the best of the three candidates,
// refined to its best connected component, and the Theorem 2 certificate (0
// when interrupted). best aliases ws's buffers, valid until ws's next use.
func (ws *adScratch) pick(gd, gdp *graph.Graph, maxEdge graph.Edge, rs *runstate.State, workers int) (best []int, ratio float64) {
	ws.edge = [2]int{maxEdge.U, maxEdge.V}
	var s1, s2 densest.Result
	workers = par.Workers(workers)
	if workers <= 1 {
		s1 = ws.peel[0].Peel(rs, gd, ws.s1)
		s2 = ws.peel[0].Peel(rs, gdp, ws.s2)
	} else {
		graphs := [2]*graph.Graph{gd, gdp}
		bufs := [2][]int{ws.s1, ws.s2}
		var out [2]densest.Result
		var cut [2]bool
		par.Run(2, 2, func(i int) {
			wrs := rs.Fork()
			out[i] = ws.peel[i].Peel(wrs, graphs[i], bufs[i])
			cut[i] = wrs.Interrupted()
		})
		if cut[0] || cut[1] {
			rs.Cancelled() // latch the caller's state (context is done)
		}
		s1, s2 = out[0], out[1]
	}
	ws.s1, ws.s2 = s1.S, s2.S

	best = ws.edge[:]
	bestRho := gd.AverageDegreeOf(best)
	if rho := gd.AverageDegreeOf(s1.S); len(s1.S) > 0 && rho > bestRho {
		best, bestRho = s1.S, rho
	}
	if rho := gd.AverageDegreeOf(s2.S); len(s2.S) > 0 && rho > bestRho {
		best, bestRho = s2.S, rho
	}
	if !gd.IsConnected(best) {
		best, bestRho = gd.BestComponent(best)
	}
	ratio = 2 * s2.Density / bestRho // ρ_{D+}(S2) is s2's density in GD+
	if rs.Interrupted() {
		// A truncated greedy pass voids the Theorem 2 certificate: s2 may
		// stop short of the density a full peel would certify against.
		ratio = 0
	}
	return best, ratio
}

// GreedyGDOnly runs plain greedy peeling (Algorithm 1) on GD alone and
// evaluates the result in GD — the "GD only" column of Tables X and XII.
func GreedyGDOnly(rs *runstate.State, gd *graph.Graph) ADResult {
	res := densest.Greedy(rs, gd)
	return newADResult(gd, res.S, 0)
}

// GreedyGDPlusOnly runs greedy peeling on GD+ and evaluates the resulting set
// in GD — the "GD+ only" column of Tables X and XII.
func GreedyGDPlusOnly(rs *runstate.State, gd *graph.Graph) ADResult {
	res := densest.Greedy(rs, gd.PositivePart())
	return newADResult(gd, res.S, 0)
}

// BruteForceAD scans all non-empty subsets for the true DCSAD optimum.
// Exponential; test oracle for graphs with n ≤ 24.
func BruteForceAD(gd *graph.Graph) ADResult {
	res := densest.BruteForce(gd)
	return newADResult(gd, res.S, 1)
}

// ExactUpperBoundRatio tightens a DCSGreedy result's approximation
// certificate: instead of Theorem 2's bound 2ρ_{D+}(S2) (twice the greedy
// density on GD+), it computes the *exact* maximum density ρ*_{D+} of GD+
// with Goldberg's min-cut algorithm — polynomial because GD+ has no negative
// weights — and returns β* = ρ*_{D+}/ρ_D(S). Since ρ_D(S') ≤ ρ_{D+}(S') ≤
// ρ*_{D+} for every S', the optimum of DCSAD is at most β*·ρ_D(S), and
// β* ≤ β always. The price is a max-flow computation per binary-search probe,
// so this is an offline certificate rather than part of the mining loop.
// Returns 1 when the result's density is 0 (the no-positive-edge case, where
// DCSGreedy is exactly optimal).
func ExactUpperBoundRatio(gd *graph.Graph, res ADResult) float64 {
	if res.Density <= 0 {
		return 1
	}
	// Materialized GD+: Exact scans its edges once per binary-search probe.
	exact := densest.Exact(gd.PositivePart())
	beta := exact.Density / res.Density
	if beta < 1 {
		// Numerical guard: the witness itself proves OPT ≥ ρ_D(S).
		beta = 1
	}
	return beta
}

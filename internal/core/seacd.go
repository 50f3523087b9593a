package core

import (
	"math"
	"sort"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/simplex"
)

// GAOptions tunes the DCSGA multi-initialization drivers. The zero value runs
// them sequentially.
type GAOptions struct {
	// Parallelism is the number of worker goroutines used by the
	// multi-initialization drivers (SEACDRefineFull, SEARefineFull,
	// CollectCliques, TopKGraphAffinity). 0 or 1 means sequential; results
	// are bitwise identical at every degree. Degrees above GOMAXPROCS are
	// capped. NewSEA takes no options: its µ-pruned loop decides each init
	// from the best objective of the inits before it, so it always runs
	// sequentially.
	Parallelism int
}

// The DCSGA solvers run at the settings of the paper's experiments
// (Section VI-A).
const (
	// epsBase controls the shrink-stage convergence condition
	// max_{k∈S} ∇k − min_{k∈S} ∇k ≤ epsBase·(1/|S|); the paper sets 10⁻².
	epsBase = 1e-2
	// maxShrinkIter bounds 2-CD iterations per shrink stage.
	maxShrinkIter = 200000
	// maxRounds bounds shrink+expansion rounds per initialization.
	maxRounds = 200
	// replicatorEps is the (intentionally faithful, intentionally flawed)
	// convergence condition of the original SEA baseline: stop the replicator
	// dynamic when the objective improves by less than this. The stop is
	// deliberately loose: it is Liu et al.'s [18], and it is what produces
	// the expansion errors of Table VII.
	replicatorEps = 1e-6
	// maxReplicatorIter bounds replicator iterations per shrink stage.
	maxReplicatorIter = 20000
)

// shrinkEps is the coordinate-descent precision on a working set of sz
// vertices: epsBase/|S|.
func shrinkEps(sz int) float64 { return epsBase / float64(max(sz, 1)) }

// GAStats aggregates work and error counters across one solver run.
type GAStats struct {
	Inits           int // SEACD/SEA initializations performed
	ShrinkIters     int // total shrink-stage iterations (2-CD or replicator)
	Expansions      int // expansion operations performed
	ExpansionErrors int // expansions after which the objective *decreased*
	RefineSteps     int // vertex-removal steps spent in Refinement
}

func (s *GAStats) add(o GAStats) {
	s.Inits += o.Inits
	s.ShrinkIters += o.ShrinkIters
	s.Expansions += o.Expansions
	s.ExpansionErrors += o.ExpansionErrors
	s.RefineSteps += o.RefineSteps
}

// shrinkFunc runs one shrink stage on the working set S, mutating x toward a
// local KKT point, and returns the iterations spent. rs carries the run's
// cancellation checkpoint into the iteration loop.
type shrinkFunc func(g *graph.Graph, x *simplex.Vector, S []int, rs *runstate.State) int

// cdShrink is the paper's 2-coordinate-descent shrink stage with the correct
// convergence condition max∇ − min∇ ≤ epsBase/|S|.
func cdShrink(g *graph.Graph, x *simplex.Vector, S []int, rs *runstate.State) int {
	return coordinateDescent(g, x, S, shrinkEps(len(S)), maxShrinkIter, rs)
}

// replicatorShrink is the original SEA shrink stage (Appendix A, Eq. 12):
// xi(t+1) = xi(t)·(Dx)_i / xᵀDx on the working set, with the baseline's loose
// convergence condition f(x) − f(x_old) ≤ replicatorEps. The working set is
// x's support: the update only rescales support entries and never adds one,
// so the iterate stays on it without a membership test. Requires D ≥ 0 there
// (the replicator breaks on negative entries — the very reason the paper
// introduces coordinate descent). The loose condition is faithful to [18] and
// is what produces the expansion errors Table VII reports.
func replicatorShrink(g *graph.Graph, x *simplex.Vector, _ []int, rs *runstate.State) int {
	iters := 0
	f := simplex.Affinity(g, x)
	for iters < maxReplicatorIter {
		if f <= 0 {
			break // dynamic undefined (single vertex / no positive mass pairs)
		}
		if rs.Checkpoint() {
			break
		}
		iters++
		next := simplex.New(x.N())
		var sum float64
		x.Visit(func(u int, xu float64) {
			var dxu float64
			g.VisitNeighbors(u, func(v int, w float64) {
				dxu += w * x.Get(v)
			})
			v := xu * dxu / f
			if v > 0 {
				next.Set(u, v)
				sum += v
			}
		})
		if sum <= 0 {
			break
		}
		// Normalize: the replicator preserves Σx=1 exactly in theory; guard
		// against floating-point drift.
		next.Visit(func(u int, v float64) { next.Set(u, v/sum) })
		*x = *next
		fNew := simplex.Affinity(g, x)
		if fNew-f <= replicatorEps {
			f = fNew
			break
		}
		f = fNew
	}
	return iters
}

// expandResult reports one expansion operation.
type expandResult struct {
	expanded bool // Z was non-empty and x moved
	errored  bool // the objective decreased after the move
}

// expand performs the SEA Expansion operation (Appendix A) around the current
// point x: find Z = {i | ∇i f(x) > 2f(x)}, build the direction
//
//	b_i = −x_i·s (i ∈ Sx\Z),  b_i = γ_i (i ∈ Z),  γ_i = (Dx)_i − f(x),
//
// and move x ← x + τb with the step τ = 1/s if a ≤ 0, else min{1/s, ζ/a},
// where s = Σγ, ζ = Σγ², ω = Σ_{i,j∈Z} γiγj·D(i,j) and a = f·s² + 2sζ − ω.
//
// (The appendix of the paper contains two sign typos — the linear term of
// f(x+τb)−f(x) is +2ζτ, and the capped step is ζ/a, not −1/a; both follow
// from expanding the quadratic form, see the derivation in the tests.)
//
// Correctness of the step hinges on x being a *local KKT point* on its
// support: then every support vertex has (Dx)_u ≤ f + kktTol and Z is
// disjoint from the support, which makes f(x+τb) − f(x) = 2ζτ − aτ² exact and
// non-negative at the chosen τ. When the shrink stage stops short of a local
// KKT point (the original SEA's loose convergence condition), support
// vertices leak into Z, the quadratic model is wrong, and the objective can
// *decrease* — exactly the "errors in Expansion" that Section V-C and
// Table VII report for SEA+Refine. kktTol must be the precision the shrink
// stage actually guarantees.
func expand(g *graph.Graph, x *simplex.Vector, kktTol float64, rs *runstate.State) expandResult {
	f := simplex.Affinity(g, x)
	// (Dx)_i for every vertex touching the support, plus the support itself.
	acc := make(map[int]float64)
	x.Visit(func(u int, xu float64) {
		acc[u] += 0
		g.VisitNeighbors(u, func(v int, w float64) {
			acc[v] += w * xu
		})
	})
	if kktTol < 1e-12 {
		kktTol = 1e-12 // numeric floor so round-off never triggers expansion
	}
	var zs []int
	gamma := make(map[int]float64)
	for i, dxi := range acc {
		if dxi > f+kktTol {
			zs = append(zs, i)
			gamma[i] = dxi - f
		}
	}
	if len(zs) == 0 {
		return expandResult{}
	}
	// Deterministic accumulation order: the γ sums below must not inherit map
	// iteration order, or round-off makes repeated runs diverge.
	sort.Ints(zs)
	var s, zeta float64
	for _, i := range zs {
		s += gamma[i]
		zeta += gamma[i] * gamma[i]
	}
	var omega float64
	for _, i := range zs {
		if rs.Checkpoint() {
			// Bail before any mutation of x: the caller sees "not expanded"
			// and unwinds with the current (valid) KKT-point embedding.
			return expandResult{}
		}
		g.VisitNeighbors(i, func(v int, w float64) {
			if gj, ok := gamma[v]; ok {
				omega += gamma[i] * gj * w
			}
		})
	}
	a := f*s*s + 2*s*zeta - omega
	var tau float64
	if a <= 0 {
		tau = 1 / s
	} else {
		tau = math.Min(1/s, zeta/a)
	}
	// Apply x ← x + τb.
	shrinkFactor := 1 - tau*s
	x.Visit(func(u int, xu float64) {
		if _, inZ := gamma[u]; !inZ {
			x.Set(u, xu*shrinkFactor)
		}
	})
	for _, i := range zs {
		x.Set(i, x.Get(i)+tau*gamma[i])
	}
	// With Z disjoint from the support the direction sums to zero and x stays
	// on the simplex; with overlap (non-KKT shrink output) it drifts —
	// project back by renormalizing.
	if sum := x.Sum(); sum > 0 && math.Abs(sum-1) > 1e-15 {
		x.Visit(func(u int, xu float64) { x.Set(u, xu/sum) })
	}
	fNew := simplex.Affinity(g, x)
	if fNew < f-1e-12*(1+math.Abs(f)) {
		// Objective decreased: the "error in Expansion" counted in Table VII.
		// Faithful to the baseline, the move is kept, only counted.
		return expandResult{expanded: true, errored: true}
	}
	return expandResult{expanded: true}
}

// seaLoop is the shared shrink-and-expand skeleton of Algorithm 3: run the
// supplied shrink stage toward a local KKT point on the current working set,
// expand by Z, and repeat until Z is empty. kktTol maps the working-set size
// to the gradient precision the shrink stage guarantees; the expansion uses
// it to decide membership in Z. It mutates x and returns per-init statistics.
// Cancellation (rs) stops the loop between rounds, inside the shrink stage,
// and inside the expansion's boundary sweep (which bails before mutating x).
func seaLoop(g *graph.Graph, x *simplex.Vector, shrink shrinkFunc, kktTol func(sz int) float64, rs *runstate.State) GAStats {
	var st GAStats
	for round := 0; round < maxRounds; round++ {
		if rs.Checkpoint() {
			break
		}
		S := x.Support()
		st.ShrinkIters += shrink(g, x, S, rs)
		if rs.Interrupted() {
			break // shrink stopped mid-descent: skip the unsafe expansion
		}
		res := expand(g, x, kktTol(len(S)), rs)
		if res.expanded {
			st.Expansions++
			if res.errored {
				st.ExpansionErrors++
			}
			continue
		}
		break
	}
	return st
}

// SEACD is Algorithm 3: coordinate-descent shrink-and-expansion from the
// initial embedding x (mutated in place) on graph g, converging to a KKT
// point of max xᵀDx over the simplex. The graph is normally GD+; the
// algorithm itself tolerates negative weights (unlike the replicator).
// Cancellation through rs stops it as described at seaLoop.
func SEACD(rs *runstate.State, g *graph.Graph, x *simplex.Vector) GAStats {
	// The coordinate-descent shrink guarantees max∇−min∇ ≤ epsBase/|S| on the
	// working set; since f is a convex combination of the support gradients,
	// no support vertex can exceed f by more than that — expansion is safe.
	st := seaLoop(g, x, cdShrink, shrinkEps, rs)
	st.Inits = 1
	return st
}

// SEA is the original algorithm of Liu et al. [18] with the replicator-based
// shrink stage and its loose convergence condition, used as the paper's
// baseline. Run it on GD+ only (non-negative weights).
func SEA(rs *runstate.State, g *graph.Graph, x *simplex.Vector) GAStats {
	// The replicator's improvement-based stop gives no gradient guarantee at
	// all; the original implementation still tests Z membership at (roughly)
	// its objective precision. When the dynamic stalls far from a local KKT
	// point, support vertices leak into Z and the expansion can reduce the
	// objective — the error counted in Table VII.
	st := seaLoop(g, x, replicatorShrink, func(int) float64 {
		return replicatorEps
	}, rs)
	st.Inits = 1
	return st
}

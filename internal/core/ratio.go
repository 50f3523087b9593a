package core

import (
	"math"
	"slices"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// RatioResult is the outcome of the α-quasi-contrast search.
type RatioResult struct {
	// Alpha is the largest ratio found: there is a subgraph S with
	// ρ2(S) ≥ Alpha·ρ1(S). +Inf when some edge exists only in G2 or has a
	// negative G1 weight (the degenerate cases that make the plain density
	// *ratio* objective ill-defined, Section III-C).
	Alpha float64
	// S attains the ratio (for the +Inf case: the heaviest G2-only edge, or
	// else the first G1-negative edge).
	S []int
	// Density2, Density1 are S's densities in the two graphs.
	Density2, Density1 float64
	// Interrupted marks a cancelled run: the binary search stopped early, so
	// Alpha is a certified lower bound reached before the cancellation rather
	// than the search's full-precision answer.
	Interrupted bool
	// Probes counts the α values tried (0 when no search is needed), Solves
	// the Algorithm 2 runs, the final witness solve included. Both are equal
	// at every worker count unless the run was interrupted.
	Probes, Solves int
}

// ratioRounds caps the binary search. Sixty halvings shrink the bracket
// below the 1e-12 relative-width stop, which normally ends the search first.
const ratioRounds = 60

// ratioBracket settles the inputs the binary search cannot: done with an
// unbounded result (see RatioResult.Alpha) or with α = 0 when no G2 edge
// has a positive weight. Otherwise it returns hi > 0, an upper bound on the
// ratio of every subgraph.
func ratioBracket(g1, g2 *graph.Graph) (hi float64, res RatioResult, done bool) {
	// An edge in G2 with no G1 counterpart keeps positive difference weight
	// for every α; an edge with w1 < 0 has w2 − α·w1 ≥ 0 for every
	// α ≥ w2/w1.
	unbounded := graph.Edge{W: 0}
	g2.VisitEdges(func(u, v int, w float64) {
		if w > 0 && g1.Weight(u, v) == 0 && w > unbounded.W {
			unbounded = graph.Edge{U: u, V: v, W: w}
		}
	})
	found := unbounded.W > 0
	if !found {
		g1.VisitEdges(func(u, v int, w float64) {
			if w < 0 && !found {
				unbounded, found = graph.Edge{U: u, V: v, W: w}, true
			}
		})
	}
	if found {
		S := []int{unbounded.U, unbounded.V}
		return 0, RatioResult{
			Alpha:    math.Inf(1),
			S:        S,
			Density2: g2.AverageDegreeOf(S),
			Density1: g1.AverageDegreeOf(S),
		}, true
	}
	// Every positive G2 edge now overlays a positive G1 edge, so for any S
	// with ρ2(S) > 0 the ratio is at most max over edges of w2/w1.
	g2.VisitEdges(func(u, v int, w float64) {
		if w1 := g1.Weight(u, v); w > 0 && w1 > 0 && w/w1 > hi {
			hi = w / w1
		}
	})
	return hi, RatioResult{Alpha: 0}, hi == 0
}

// MaxRatioContrast searches for the largest α such that some subgraph
// satisfies ρ2(S) ≥ α·ρ1(S), using the generalized difference graph of
// Section III-D: the condition holds for some S iff the DCSAD optimum on
// GD = G2 − αG1 is positive. DCSGreedy stands in for the (NP-hard) exact
// feasibility test, so the returned α is a certified *lower bound* on the
// true supremum: the witness S always satisfies the inequality, which is
// re-checked before returning.
//
// The search runs ratioRounds rounds of binary search over [0, hi], where hi
// is derived from the heaviest G2 edge against the lightest G1 edge. Most
// probes are decided by GD's maximum edge alone (see probe below).
//
// Each Algorithm 2 run is spread over at most workers goroutines, as in
// DCSGreedy; the probes stay sequential, so the result is bitwise identical
// at every degree. When rs is cancelled the probe in flight finishes and the
// best certified witness so far is returned, tagged Interrupted.
func MaxRatioContrast(rs *runstate.State, g1, g2 *graph.Graph, workers int) RatioResult {
	hi, res, done := ratioBracket(g1, g2)
	if done {
		return res
	}
	// The union topology of (G1, G2) is merged once; each probe re-weights
	// it into the workspace's GD storage (bitwise DifferenceAlpha's graph),
	// so a probe allocates nothing graph-sized.
	union := graph.NewUnion(g1, g2)
	var ws adScratch
	// bestS is the last feasible probe's witness if solved, stale if that
	// probe was decided by its maximum edge.
	bestS, solved := make([]int, 0, g2.N()), false
	// probe reports whether α is feasible, i.e. whether Algorithm 2 on
	// GD = G2 − αG1 finds a set of density > 1e-12 (any such set proves
	// ρ2(S) > α·ρ1(S)), and on success records that set in bestS — unless the
	// maximum edge decides the verdict first.
	//
	// Why the maximum edge can decide. Let W be its weight, nnz = 2·M() the
	// count of GD's adjacency entries, B their Σ|w| and ρ̂(S) the computed
	// AverageDegreeOf(S). The edge's ρ̂ is W exactly (w + w, halved). Any
	// other ρ̂(S) sums at most nnz of GD's weights and divides once, so
	// |ρ̂(S) − ρ(S)| < γ·B with γ = (nnz+2)·2⁻⁵³ (recursive summation plus the
	// division; for nnz ≤ 2²⁴ the bound holds with 2⁻⁵³·B to spare).
	// Algorithm 2 keeps the edge unless a peel prefix beats it in ρ̂, so its
	// winner X before refinement has ρ̂(X) ≥ W and ρ(X) > W − γB. A
	// disconnected X is replaced by its component of highest ρ̂; the
	// component of highest ρ has ρ ≥ ρ(X) (Property 1, exact), so the chosen
	// one has ρ̂ > W − 2γB and ρ > W − 3γB, and the check below re-sums the
	// sorted witness to ρ̂ > W − 4γB. Interrupted peels' prefixes are compared
	// against the same edge, so this holds for them too. The pass below sums
	// B once per edge and doubles it, undershooting by a relative
	// (nnz/2)·2⁻⁵³ at most, which the spare covers. Hence W > 1e-12 + 4γB
	// proves the witness's ρ̂ > 1e-12: the probe is feasible.
	probe := func(alpha float64, decide bool) bool {
		gd := union.DifferenceAlphaInto(alpha, &ws.gd)
		// One pass for Algorithm 2's maximum edge (graph.MaxEdge's
		// first-maximum rule) and Σ|w| over GD's edges.
		var maxEdge graph.Edge
		var abs float64
		found := false
		gd.VisitEdges(func(u, v int, w float64) {
			if !found || w > maxEdge.W {
				maxEdge, found = graph.Edge{U: u, V: v, W: w}, true
			}
			abs += math.Abs(w)
		})
		if !found || maxEdge.W <= 0 {
			return false // Algorithm 2's single vertex: density 0
		}
		if nnz := 2 * gd.M(); decide && nnz <= 1<<24 &&
			maxEdge.W > 1e-12+4*(float64(nnz+2)*0x1p-53)*(2*abs) {
			solved = false
			return true
		}
		res.Solves++
		best, _ := ws.pick(gd, gd.PositivePartInto(&ws.gdp), maxEdge, rs, workers)
		// Sorted, as the ADResult the witness used to come from: the density
		// below sums in that order.
		ws.sorted = append(ws.sorted[:0], best...)
		slices.Sort(ws.sorted)
		// An interrupted probe's witness still certifies α if its density
		// is positive; the search stops at the next Cancelled poll.
		if gd.AverageDegreeOf(ws.sorted) <= 1e-12 {
			return false
		}
		bestS, solved = append(bestS[:0], ws.sorted...), true
		return true
	}
	lo := 0.0
	res.Probes++
	if !probe(0, true) {
		res.Interrupted = rs.Interrupted()
		return res
	}
	hiBound := hi * (1 + 1e-9)
	for it := 0; it < ratioRounds && hiBound-lo > 1e-12*(1+hiBound); it++ {
		if rs.Cancelled() {
			break // keep the last certified witness
		}
		mid := (lo + hiBound) / 2
		res.Probes++
		if probe(mid, true) {
			lo = mid
		} else {
			hiBound = mid
		}
	}
	if !solved {
		// The last feasible probe was decided by its maximum edge: solve it
		// for the witness, the very set a full probe there would have found.
		probe(lo, false)
	}
	d1, d2 := g1.AverageDegreeOf(bestS), g2.AverageDegreeOf(bestS)
	res.Alpha, res.S, res.Density2, res.Density1 = lo, bestS, d2, d1
	// Certify with the witness itself: its actual ratio can only be ≥ the
	// last feasible α (ρ2 − αρ1 > 0 and ρ1 > 0 ⇒ ρ2/ρ1 > α).
	if d1 > 0 && d2/d1 > lo {
		res.Alpha = d2 / d1
	}
	res.Interrupted = rs.Interrupted()
	return res
}

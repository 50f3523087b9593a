package core

import (
	"context"
	"math"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/par"
	"github.com/dcslib/dcs/internal/runstate"
)

// RatioResult is the outcome of the α-quasi-contrast search.
type RatioResult struct {
	// Alpha is the largest ratio found: there is a subgraph S with
	// ρ2(S) ≥ Alpha·ρ1(S). +Inf when some edge exists only in G2 (the
	// degenerate case that makes the plain density *ratio* objective
	// ill-defined, Section III-C).
	Alpha float64
	// S attains the ratio (for the +Inf case: the heaviest G2-only edge).
	S []int
	// Density2, Density1 are S's densities in the two graphs.
	Density2, Density1 float64
	// Interrupted marks a cancelled run: the binary search stopped early, so
	// Alpha is a certified lower bound reached before the cancellation rather
	// than the search's full-precision answer.
	Interrupted bool
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
// is derived from the heaviest G2 edge against the lightest G1 edge.
func MaxRatioContrast(g1, g2 *graph.Graph) RatioResult {
	return maxRatioContrastRS(g1, g2, runstate.New(nil), 1)
}

// MaxRatioContrastCtx is MaxRatioContrast with cooperative cancellation and
// concurrent binary-search probes: each round expands the first `workers`
// nodes of the search's decision tree in breadth-first order — every node is
// an (lo, hi) interval whose probe is the midpoint, with a feasible child
// (mid, hi) and an infeasible child (lo, mid) — probes them all
// speculatively in parallel, and then commits only the path the sequential
// search would have walked. Because each probe's outcome is a deterministic
// function of its α alone, the committed (lo, hi) trajectory is bitwise
// identical to the sequential search at every degree; roughly half the
// speculative probes are wasted in exchange for advancing
// ⌈log2(workers)⌉+1 levels per round. Workers ≤ 1 is exactly
// MaxRatioContrast. When ctx is done the probe or round in flight finishes
// and the best certified witness committed so far is returned, tagged
// Interrupted.
func MaxRatioContrastCtx(ctx context.Context, g1, g2 *graph.Graph, workers int) RatioResult {
	return maxRatioContrastRS(g1, g2, runstate.New(ctx), workers)
}

// ratioRounds caps the binary search. Sixty halvings shrink the bracket
// below the 1e-12 relative-width stop, which normally ends the search first.
const ratioRounds = 60

func maxRatioContrastRS(g1, g2 *graph.Graph, rs *runstate.State, workers int) RatioResult {
	// Unbounded case: an edge in G2 with no G1 counterpart keeps positive
	// difference weight for every α.
	bestOnly := graph.Edge{W: 0}
	g2.VisitEdges(func(u, v int, w float64) {
		if w > 0 && g1.Weight(u, v) == 0 && w > bestOnly.W {
			bestOnly = graph.Edge{U: u, V: v, W: w}
		}
	})
	if bestOnly.W > 0 {
		S := []int{bestOnly.U, bestOnly.V}
		return RatioResult{
			Alpha:    math.Inf(1),
			S:        S,
			Density2: g2.AverageDegreeOf(S),
			Density1: 0,
		}
	}
	if g2.M() == 0 {
		return RatioResult{Alpha: 0}
	}
	// Upper bound on the ratio: every G2 edge overlays a G1 edge (checked
	// above), so for any S with ρ2(S) > 0 the ratio is at most
	// max over edges of w2/w1.
	hi := 0.0
	g2.VisitEdges(func(u, v int, w float64) {
		if w <= 0 {
			return
		}
		if w1 := g1.Weight(u, v); w1 > 0 {
			if r := w / w1; r > hi {
				hi = r
			}
		}
	})
	if hi == 0 {
		return RatioResult{Alpha: 0}
	}
	feasible := func(alpha float64, frs *runstate.State) ([]int, bool) {
		gd := graph.DifferenceAlpha(g1, g2, alpha)
		res := dcsGreedyRS(gd, frs, 1)
		// An interrupted probe with positive density is still a valid
		// certificate — any S with ρ_D(S) > 0 proves ρ2(S) > α·ρ1(S), no
		// matter how early the greedy was cut — so the witness is kept (the
		// search itself stops at the next Cancelled poll). Only an
		// interrupted probe *without* such a witness is treated as
		// infeasible.
		if res.Density > 1e-12 {
			return res.S, true
		}
		return nil, false
	}
	var bestS []int
	lo := 0.0
	if S, ok := feasible(0, rs); ok {
		bestS = S
	} else {
		if rs.Interrupted() {
			return RatioResult{Interrupted: true}
		}
		return RatioResult{Alpha: 0}
	}
	hiBound := hi * (1 + 1e-9)
	workers = par.Workers(workers)
	if workers <= 1 {
		for it := 0; it < ratioRounds && hiBound-lo > 1e-12*(1+hiBound); it++ {
			if rs.Cancelled() {
				break // keep the last certified witness
			}
			mid := (lo + hiBound) / 2
			if S, ok := feasible(mid, rs); ok {
				bestS, lo = S, mid
			} else {
				hiBound = mid
			}
		}
	} else {
		// Speculative rounds over the decision tree: node (l, h) probes
		// α = (l+h)/2 and branches to (mid, h) on feasible, (l, mid) on
		// infeasible. Each round probes the first `workers` BFS nodes in
		// parallel and then replays the sequential search, consuming a probe
		// only while its node is in the batch. Under cancellation the round
		// in flight is discarded wholesale (forked probes may have been cut,
		// so their verdicts are not trustworthy) and the last committed
		// witness survives.
		type node struct{ l, h float64 }
		it := 0
		for it < ratioRounds && hiBound-lo > 1e-12*(1+hiBound) {
			if rs.Cancelled() {
				break
			}
			batch := []node{{lo, hiBound}}
			for i := 0; i < len(batch) && len(batch) < workers; i++ {
				m := (batch[i].l + batch[i].h) / 2
				batch = append(batch, node{m, batch[i].h})
				if len(batch) < workers {
					batch = append(batch, node{batch[i].l, m})
				}
			}
			type verdict struct {
				S  []int
				ok bool
			}
			verdicts := make([]verdict, len(batch))
			cut := make([]bool, len(batch))
			par.Run(workers, len(batch), func(i int) {
				wrs := rs.Fork()
				verdicts[i].S, verdicts[i].ok = feasible((batch[i].l+batch[i].h)/2, wrs)
				cut[i] = wrs.Interrupted()
			})
			for _, c := range cut {
				if c {
					rs.Cancelled() // latch; the top of the loop bails out
					break
				}
			}
			probed := make(map[node]int, len(batch))
			for i, nd := range batch {
				probed[nd] = i
			}
			for it < ratioRounds && hiBound-lo > 1e-12*(1+hiBound) {
				if rs.Cancelled() {
					break
				}
				i, ok := probed[node{lo, hiBound}]
				if !ok {
					break // path left the batch; next round re-roots here
				}
				mid := (lo + hiBound) / 2
				if verdicts[i].ok {
					bestS, lo = verdicts[i].S, mid
				} else {
					hiBound = mid
				}
				it++
			}
		}
	}
	d1 := g1.AverageDegreeOf(bestS)
	d2 := g2.AverageDegreeOf(bestS)
	alpha := lo
	// Certify with the witness itself: its actual ratio can only be ≥ the
	// last feasible α (ρ2 − αρ1 > 0 and ρ1 > 0 ⇒ ρ2/ρ1 > α).
	if d1 > 0 && d2/d1 > alpha {
		alpha = d2 / d1
	}
	return RatioResult{Alpha: alpha, S: bestS, Density2: d2, Density1: d1,
		Interrupted: rs.Interrupted()}
}

// Package egoscan implements the comparison baseline of Section VI-E: the
// EgoScan algorithm of Cadena et al., "On dense subgraphs in signed network
// streams" (ICDM 2016) [6].
//
// EgoScan maximizes the *total* edge-weight difference W_D(S) over S ⊆ V on a
// signed difference graph — not a density. The original algorithm scans the
// ego net of every vertex and rounds a semidefinite-programming relaxation
// inside each ego net. An SDP solver is far outside this repository's
// stdlib-only scope (and is exactly what made EgoScan slow and memory-hungry
// in the paper's experiments), so this implementation keeps the algorithmic
// skeleton — an ego-net scan with local candidate construction — and replaces
// the SDP rounding with a deterministic greedy grow/prune local search on the
// same objective. The qualitative behaviour the paper reports is preserved:
// the subgraphs found are much larger than any DCS, have far higher total
// weight, and far lower density. See DESIGN.md §4 for the substitution note.
package egoscan

import (
	"context"
	"sort"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// Result is a subgraph maximizing (approximately) the total weight W_D(S).
type Result struct {
	S              []int   // vertex set, increasing order
	TotalWeight    float64 // W_D(S), paper convention (each edge twice)
	Density        float64 // ρ_D(S) for comparison with DCS results
	EdgeDensity    float64 // W_D(S)/|S|²
	PositiveClique bool
	// Interrupted marks a run cancelled mid-scan: S is the best candidate
	// found before the cancellation, not the full scan's winner.
	Interrupted bool
}

// maxGrowRounds bounds grow/prune alternations per seed.
const maxGrowRounds = 8

// Scan runs the ego-net scan on a difference graph and returns the best
// total-weight subgraph found. Seeds are tried in decreasing positive
// weighted degree, skipping vertices absorbed into an earlier candidate.
func Scan(gd *graph.Graph) Result {
	return scanRS(gd, runstate.New(nil))
}

// ScanCtx is Scan with cooperative cancellation: when ctx is done the scan
// stops within one checkpoint interval and returns the best candidate found
// so far, tagged Interrupted.
func ScanCtx(ctx context.Context, gd *graph.Graph) Result {
	return scanRS(gd, runstate.New(ctx))
}

func scanRS(gd *graph.Graph, rs *runstate.State) Result {
	n := gd.N()
	if n == 0 {
		return Result{}
	}
	// Seed order: descending positive weighted degree — heavy hubs first,
	// mirroring EgoScan's prioritization of promising ego nets.
	posDeg := make([]float64, n)
	for v := 0; v < n; v++ {
		if rs.Checkpoint() {
			break // unseen seeds keep degree 0, sort last, and are skipped below
		}
		gd.VisitNeighbors(v, func(_ int, w float64) {
			if w > 0 {
				posDeg[v] += w
			}
		})
	}
	seeds := make([]int, n)
	for i := range seeds {
		seeds[i] = i
	}
	sort.Slice(seeds, func(i, j int) bool {
		if posDeg[seeds[i]] != posDeg[seeds[j]] {
			return posDeg[seeds[i]] > posDeg[seeds[j]]
		}
		return seeds[i] < seeds[j]
	})

	var bestS []int
	bestW := 0.0
	seenSeed := make([]bool, n)
	for _, s := range seeds {
		if posDeg[s] <= 0 {
			break // no positive edge left to build on
		}
		if rs.Cancelled() {
			break // partial scan: keep whatever the earlier seeds produced
		}
		if seenSeed[s] {
			continue // already absorbed into an earlier candidate
		}
		S := growPrune(gd, s, rs)
		for _, v := range S {
			seenSeed[v] = true
		}
		if w := gd.TotalDegreeOf(S); w > bestW {
			bestW = w
			bestS = S
		}
	}
	if bestS == nil {
		bestS = []int{0}
	}
	sort.Ints(bestS)
	return Result{
		S:              bestS,
		TotalWeight:    gd.TotalDegreeOf(bestS),
		Density:        gd.AverageDegreeOf(bestS),
		EdgeDensity:    gd.EdgeDensityOf(bestS),
		PositiveClique: gd.IsPositiveClique(bestS),
		Interrupted:    rs.Interrupted(),
	}
}

// growPrune builds a candidate around seed s: start from the positive part of
// the ego net, then alternate (a) adding every boundary vertex whose marginal
// contribution 2·W(v; S) is positive and (b) removing every member whose
// in-set degree is negative, until a fixed point or the round budget runs
// out. Every step strictly increases W_D(S), so termination is guaranteed
// even without the budget; the budget just caps worst-case work per seed.
func growPrune(gd *graph.Graph, s int, rs *runstate.State) []int {
	in := map[int]bool{s: true}
	gd.VisitNeighbors(s, func(v int, w float64) {
		if w > 0 {
			in[v] = true
		}
	})
	for round := 0; round < maxGrowRounds; round++ {
		changed := false
		// Grow: marginal gain of adding v is 2·Σ_{u∈S} w(v,u).
		gain := make(map[int]float64)
		for u := range in {
			if rs.Checkpoint() {
				// Mid-grow cancellation: the current member set is already a
				// valid candidate; hand it back as-is.
				return sortedMembers(in)
			}
			gd.VisitNeighbors(u, func(v int, w float64) {
				if !in[v] {
					gain[v] += w
				}
			})
		}
		// Deterministic iteration order.
		cands := make([]int, 0, len(gain))
		for v := range gain {
			cands = append(cands, v)
		}
		sort.Ints(cands)
		for _, v := range cands {
			if gain[v] > 0 {
				in[v] = true
				changed = true
			}
		}
		// Prune: drop members with negative in-set degree. Recompute after
		// each removal batch; one batch per round keeps cost linear.
		members := make([]int, 0, len(in))
		for v := range in {
			members = append(members, v)
		}
		sort.Ints(members)
		for _, v := range members {
			if rs.Checkpoint() {
				return sortedMembers(in)
			}
			var d float64
			gd.VisitNeighbors(v, func(u int, w float64) {
				if in[u] {
					d += w
				}
			})
			if d < 0 {
				delete(in, v)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return sortedMembers(in)
}

func sortedMembers(in map[int]bool) []int {
	out := make([]int, 0, len(in))
	for v := range in {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

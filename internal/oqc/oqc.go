// Package oqc implements optimal quasi-clique extraction (Tsourakakis et
// al., KDD 2013 — reference [24] of the DCS paper), the problem Section III-D
// relates to generalized difference graphs: maximize the edge surplus
//
//	f_α(S) = W(S)/2 − α·|S|(|S|−1)/2,
//
// i.e. total (undirected) edge weight minus α times the number of possible
// pairs. Subgraphs with positive surplus are α-quasi-cliques. The reference
// algorithm is greedy local search; this implementation follows it with
// deterministic tie-breaking and supports signed weights, so it can run
// directly on difference graphs as another contrast-mining baseline.
package oqc

import (
	"sort"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// Result is an α-quasi-clique candidate.
type Result struct {
	S       []int
	Surplus float64 // f_α(S)
	Density float64 // edge-surplus density: W(S)/(|S|(|S|−1)) over possible pairs
}

// LocalSearch runs add/remove hill climbing on f_α from the given seed
// vertex: repeatedly add the outside vertex with the largest positive gain,
// then drop inside vertices with negative gain, until neither move improves.
// Each move strictly increases f_α, so termination is guaranteed; 4n moves
// cap pathological cases. A climb interrupted through rs stops between moves
// and returns the current (always valid) set, whose surplus is at least the
// seed's.
func LocalSearch(rs *runstate.State, g *graph.Graph, alpha float64, seed int) Result {
	in := map[int]bool{seed: true}
	size := 1
	// addGain(v) = W(v;S)/1 … joining v adds its in-set weight minus α·|S|.
	inWeight := func(v int) float64 {
		var s float64
		g.VisitNeighbors(v, func(u int, w float64) {
			if in[u] {
				s += w
			}
		})
		return s
	}
	for move := 0; move < 4*g.N(); move++ {
		if rs.Checkpoint() {
			break // hand back the current set: every prefix of moves is valid
		}
		// Best addition among the boundary.
		bestV, bestGain := -1, 0.0
		cand := map[int]bool{}
		for u := range in {
			g.VisitNeighbors(u, func(v int, _ float64) {
				if !in[v] {
					cand[v] = true
				}
			})
		}
		order := make([]int, 0, len(cand))
		for v := range cand {
			order = append(order, v)
		}
		sort.Ints(order)
		for _, v := range order {
			gain := inWeight(v) - alpha*float64(size)
			if gain > bestGain+1e-12 || (bestV == -1 && gain > 1e-12) {
				bestV, bestGain = v, gain
			}
		}
		if bestV >= 0 {
			in[bestV] = true
			size++
			continue
		}
		// Best removal.
		bestV = -1
		members := make([]int, 0, size)
		for v := range in {
			members = append(members, v)
		}
		sort.Ints(members)
		for _, v := range members {
			if size == 1 {
				break
			}
			gain := alpha*float64(size-1) - inWeight(v)
			if gain > bestGain+1e-12 {
				bestV, bestGain = v, gain
			}
		}
		if bestV >= 0 {
			delete(in, bestV)
			size--
			continue
		}
		break
	}
	S := make([]int, 0, size)
	for v := range in {
		S = append(S, v)
	}
	sort.Ints(S)
	return describe(g, alpha, S)
}

// bestSeeds is the number of seeds Best climbs from.
const bestSeeds = 16

// Best runs LocalSearch from the bestSeeds highest-positive-degree seeds and
// keeps the largest surplus. An interrupted run returns the best result over
// the seeds finished so far (Surplus: -1e300 sentinel if none completed).
func Best(rs *runstate.State, g *graph.Graph, alpha float64) Result {
	n := g.N()
	if n == 0 {
		return Result{}
	}
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		if rs.Checkpoint() {
			break // unseen seeds keep degree 0 and sort last; still a valid order
		}
		g.VisitNeighbors(v, func(_ int, w float64) {
			if w > 0 {
				deg[v] += w
			}
		})
	}
	seeds := make([]int, n)
	for i := range seeds {
		seeds[i] = i
	}
	sort.Slice(seeds, func(i, j int) bool {
		if deg[seeds[i]] != deg[seeds[j]] {
			return deg[seeds[i]] > deg[seeds[j]]
		}
		return seeds[i] < seeds[j]
	})
	best := Result{Surplus: -1e300}
	for _, s := range seeds[:min(bestSeeds, n)] {
		if rs.Checkpoint() {
			break // best over the seeds finished so far
		}
		if r := LocalSearch(rs, g, alpha, s); r.Surplus > best.Surplus {
			best = r
		}
	}
	return best
}

// Surplus evaluates f_α(S) directly.
func Surplus(g *graph.Graph, alpha float64, S []int) float64 {
	k := float64(len(S))
	return g.TotalDegreeOf(S)/2 - alpha*k*(k-1)/2
}

func describe(g *graph.Graph, alpha float64, S []int) Result {
	r := Result{S: S, Surplus: Surplus(g, alpha, S)}
	k := float64(len(S))
	if k >= 2 {
		r.Density = g.TotalDegreeOf(S) / (k * (k - 1))
	}
	return r
}

package densest

import (
	"sort"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// improveRounds bounds LocalImprove's steepest-ascent loop. Each round moves
// one vertex, so the bound also caps how far the result can drift from its
// seed.
const improveRounds = 32

// LocalImprove runs steepest-ascent local search from a seed set: each round
// considers every single-vertex move — adding a neighbor v of S (profitable
// when 2·w(v,S) > ρ(S)) or removing a member u (profitable when
// 2·w(u,S∖u) < ρ(S)) — applies the one that raises the density most, and
// stops at a local optimum or after improveRounds moves.
// Density follows the package convention ρ(S) = W(S)/|S| with edges counted
// twice.
//
// This is the warm-start entry point of the streaming engine: seeded with the
// previous tick's subgraph on a difference graph that has only drifted
// locally, a handful of rounds re-tracks the optimum without a full peel.
// Each round costs O(vol(S) + |N(S)|). An empty seed returns an empty result.
// A search interrupted through rs stops between moves and returns the
// current set — every prefix of moves is a valid subgraph whose density is
// evaluated from scratch on return.
func LocalImprove(rs *runstate.State, g *graph.Graph, seed []int) Result {
	if len(seed) == 0 {
		return Result{}
	}
	n := g.N()
	in := make([]bool, n)
	S := make([]int, 0, len(seed))
	for _, v := range seed {
		if !in[v] {
			in[v] = true
			S = append(S, v)
		}
	}
	w := g.TotalDegreeOf(S) // doubled convention

	// conn[v] = w(v, S) single-counted, maintained incrementally across
	// moves: adding/removing u shifts conn of u's neighbors only.
	conn := make([]float64, n)
	for _, u := range S {
		if rs.Checkpoint() {
			break // round loop below polls the same latched State and exits
		}
		g.VisitNeighbors(u, func(v int, wt float64) { conn[v] += wt })
	}

	for round := 0; round < improveRounds; round++ {
		if rs.Checkpoint() {
			break // current S is valid; density recomputed from scratch below
		}
		rho := w / float64(len(S))
		bestRho := rho
		bestV, bestAdd := -1, false
		// Candidate additions: non-members with any connection into S.
		// Scanning the frontier through S's rows keeps the round local.
		seen := make(map[int]bool, 4*len(S))
		for _, u := range S {
			g.VisitNeighbors(u, func(v int, _ float64) {
				if in[v] || seen[v] {
					return
				}
				seen[v] = true
				if r := (w + 2*conn[v]) / float64(len(S)+1); r > bestRho {
					bestRho, bestV, bestAdd = r, v, true
				}
			})
		}
		// Candidate removals (never empty the set).
		if len(S) > 1 {
			for _, u := range S {
				// conn[u] counts u's own edges into S, excluding u
				// itself (no self-loops), so it is w(u, S∖u) exactly.
				if r := (w - 2*conn[u]) / float64(len(S)-1); r > bestRho {
					bestRho, bestV, bestAdd = r, u, false
				}
			}
		}
		if bestV < 0 {
			break // local optimum
		}
		if bestAdd {
			in[bestV] = true
			S = append(S, bestV)
			w += 2 * conn[bestV]
			g.VisitNeighbors(bestV, func(v int, wt float64) { conn[v] += wt })
		} else {
			in[bestV] = false
			for i, u := range S {
				if u == bestV {
					S = append(S[:i], S[i+1:]...)
					break
				}
			}
			w -= 2 * conn[bestV]
			g.VisitNeighbors(bestV, func(v int, wt float64) { conn[v] -= wt })
		}
	}
	sort.Ints(S)
	// Recompute the final density from scratch: the incremental w above
	// accumulates one rounding per move and the caller compares this value
	// against freshly-evaluated candidates.
	return Result{S: S, Density: g.AverageDegreeOf(S)}
}

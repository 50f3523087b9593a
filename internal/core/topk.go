package core

import (
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// TopKAverageDegree mines up to k vertex-disjoint density contrast subgraphs
// under the average-degree measure, addressing the paper's stated future-work
// direction ("how to mine multiple subgraphs with big density difference").
//
// It iterates DCSGreedy: find a DCS, record it, strip its vertices from the
// difference graph, and repeat until k subgraphs are found or no subgraph
// with positive density difference remains. Stripping uses WithoutVertices,
// which since the CSR refactor is an O(n) mask flip over shared storage
// rather than an O(n+m) adjacency rebuild — the per-k cost is the DCSGreedy
// run itself. The first result is exactly DCSGreedy's. Because DCSGreedy is
// a heuristic, a later result can occasionally be denser than an earlier one
// (removal changes the peeling order); results are reported in discovery
// order.
//
// Each DCSGreedy iteration runs on at most workers goroutines (see
// DCSGreedy). The outer loop is inherently sequential — every pick depends
// on the previous strip — so the parallelism lives inside the per-k solve;
// results are bitwise identical at every degree. When rs is cancelled, the
// subgraphs already mined are returned and interrupted reports the early
// stop. A DCSGreedy iteration cut mid-peel is discarded rather than reported
// (its partial pick is not comparable to the completed ones).
func TopKAverageDegree(rs *runstate.State, gd *graph.Graph, k, workers int) (results []ADResult, interrupted bool) {
	var out []ADResult
	// GD+ is derived once; each pick masks it alongside GD (the positive
	// part of a masked GD is the masked positive part), so a pick costs no
	// O(m) rebuild. ws is shared by every pick.
	ws := new(adScratch)
	work, workp := gd, gd.PositivePartInto(&ws.gdp)
	for len(out) < k {
		res := dcsGreedy(rs, work, workp, workers, ws)
		if res.Interrupted {
			// With completed picks in hand, the truncated pick is discarded
			// (not comparable to them). With none, it *is* the best-so-far
			// answer — exactly what DCSGreedy alone would have returned —
			// so an interrupted k=1 call still carries a result.
			if len(out) == 0 && len(res.S) > 0 && res.Density > 0 {
				out = append(out, res)
			}
			return out, true
		}
		if res.Density <= 0 || len(res.S) == 0 {
			break
		}
		// Re-evaluate the subgraph against the *original* difference graph:
		// the vertices are disjoint from earlier picks, so the induced
		// subgraph (and hence every metric) is identical — asserted in tests.
		out = append(out, newADResult(gd, res.S, res.Ratio))
		work, workp = work.WithoutVertices(res.S), workp.WithoutVertices(res.S)
	}
	// Interrupted() (the latch), not a fresh poll: a cancellation landing
	// after the k-th subgraph completed must not mislabel a full answer.
	return out, rs.Interrupted()
}

// TopKGraphAffinity mines up to k vertex-disjoint positive cliques with the
// largest affinity differences: it runs the full CollectCliques pass once and
// then greedily selects non-overlapping cliques in affinity order. Unlike
// CollectCliques (which may return overlapping topics), the results here are
// disjoint communities. interrupted reports that the clique collection was
// cancelled through rs, so the selection ran over a partial candidate pool.
func TopKGraphAffinity(rs *runstate.State, gd *graph.Graph, k int, opt GAOptions) (results []Clique, interrupted bool) {
	cliques, interrupted := CollectCliques(rs, gd, opt)
	taken := make(map[int]bool)
	var out []Clique
	for _, c := range cliques {
		if len(out) >= k || rs.Checkpoint() {
			break // greedy selection: any prefix is a valid disjoint top-k'
		}
		overlap := false
		for _, v := range c.S {
			if taken[v] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for _, v := range c.S {
			taken[v] = true
		}
		out = append(out, c)
	}
	return out, interrupted
}

package core

import (
	"github.com/dcslib/dcs/internal/densest"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/simplex"
)

// DCSGreedyWarm is sequential DCSGreedy with a warm start: alongside
// Algorithm 2's candidates it refines the prior set (the previous streaming
// tick's subgraph) with densest.LocalImprove and keeps whichever answer is
// denser.
// On a difference graph that has only drifted locally since the prior was
// mined, the refined prior routinely beats the greedy candidates — warmHit
// reports that case, the streaming engine's warm-start hit signal. A
// disconnected warm winner is refined to its best component first (Property 1:
// never lowers the density); the warm candidate carries no Theorem 2
// certificate, so Ratio is 0 when it wins. An empty prior is exactly
// DCSGreedy.
func DCSGreedyWarm(rs *runstate.State, gd *graph.Graph, prior []int) (res ADResult, warmHit bool) {
	res = DCSGreedy(rs, gd, 1)
	if len(prior) == 0 {
		return res, false
	}
	imp := densest.LocalImprove(rs, gd, prior)
	if len(imp.S) == 0 || imp.Density <= res.Density {
		return res, false
	}
	best := imp.S
	if !gd.IsConnected(best) {
		best, _ = gd.BestComponent(best)
	}
	warm := newADResult(gd, best, 0)
	warm.Interrupted = res.Interrupted
	if warm.Density <= res.Density {
		return res, false
	}
	return warm, true
}

// NewSEAWarm is NewSEA with a warm start: when the prior set (the
// previous streaming tick's support) is still a positive clique of gd, its
// locally-optimal embedding (CliqueEmbedding) competes with the solver's
// answer and wins ties of structure — warmHit reports a prior that beat every
// fresh initialization. A prior that is no longer a positive clique is
// discarded (its gdp-affinity would overstate the true objective, the same
// honesty rule the interrupted path applies). A cancelled rs cuts the
// prior's descent short as it cuts the solver's.
func NewSEAWarm(rs *runstate.State, gd *graph.Graph, prior []int) (res GAResult, warmHit bool) {
	res = NewSEA(rs, gd)
	if len(prior) == 0 || !gd.IsPositiveClique(prior) {
		return res, false
	}
	x := CliqueEmbedding(rs, gd, prior)
	if simplex.Affinity(gd, x) <= res.Affinity {
		return res, false
	}
	warm := newGAResult(gd, x, res.Stats)
	warm.Interrupted = res.Interrupted
	return warm, true
}

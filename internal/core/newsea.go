package core

import (
	"sort"

	"github.com/dcslib/dcs/internal/cores"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/par"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/simplex"
)

// GAResult is the outcome of a DCSGA computation.
type GAResult struct {
	X              *simplex.Vector // the subgraph embedding on the simplex
	S              []int           // support set Sx, increasing order
	Affinity       float64         // f_D(x) = xᵀDx, the graph affinity difference
	Density        float64         // ρ_D(Sx), average-degree difference of the support
	EdgeDensity    float64         // W_D(Sx)/|Sx|², edge-density difference
	TotalWeight    float64         // W_D(Sx), total edge weight difference
	PositiveClique bool            // is GD(Sx) a positive clique? (true after Refine)
	// Interrupted marks a cancelled run: the embedding is the best one found
	// before the cancellation (possibly short of a KKT point or a positive
	// clique — the flags above always describe the actual result).
	Interrupted bool
	Stats       GAStats
}

func newGAResult(gd *graph.Graph, x *simplex.Vector, st GAStats) GAResult {
	S := x.Support()
	w, density, edgeDensity := gd.SubgraphMetrics(S)
	return GAResult{
		X:              x,
		S:              S,
		Affinity:       simplex.Affinity(gd, x),
		Density:        density,
		EdgeDensity:    edgeDensity,
		TotalWeight:    w,
		PositiveClique: gd.IsPositiveClique(S),
		Stats:          st,
	}
}

// initBounds computes the smart-initialization upper bounds of Algorithm 5:
// for every vertex u of GD+, µu = τu·wu/(τu+1), where τu is u's core number
// and wu upper-bounds the maximum edge weight in u's ego net. By Theorem 6,
// µu bounds xᵀDx for any clique embedding of GD+ whose support contains u.
// Total cost O(|ED+|).
// An interrupted run leaves the unvisited entries at 0, so they sort last
// and NewSEA's µu ≤ bestF cutoff stops immediately.
func initBounds(gdp *graph.Graph, rs *runstate.State) []float64 {
	n := gdp.N()
	// mw[v] = max weight incident to v.
	mw := make([]float64, n)
	for v := 0; v < n; v++ {
		if rs.Checkpoint() {
			break
		}
		gdp.VisitNeighbors(v, func(_ int, w float64) {
			if w > mw[v] {
				mw[v] = w
			}
		})
	}
	// wu = max over the ego net Tu = {u} ∪ N(u) of incident max-weights:
	// every edge with an endpoint in Tu contributes to some mw[v], v ∈ Tu.
	tau := cores.Numbers(rs, gdp)
	mu := make([]float64, n)
	for u := 0; u < n; u++ {
		if rs.Checkpoint() {
			break
		}
		wu := mw[u]
		gdp.VisitNeighbors(u, func(v int, _ float64) {
			if mw[v] > wu {
				wu = mw[v]
			}
		})
		t := float64(tau[u])
		mu[u] = t * wu / (t + 1)
	}
	return mu
}

// runInit performs one initialization of the DCSGA pipeline: x = e_u, SEACD
// (or SEA) to a KKT point on GD+, then Refinement to a positive clique.
func runInit(gdp *graph.Graph, u int, useReplicator bool, opt GAOptions, rs *runstate.State) (*simplex.Vector, GAStats) {
	x := simplex.Indicator(gdp.N(), u)
	var st GAStats
	if useReplicator {
		st = SEA(rs, gdp, x, opt)
	} else {
		st = SEACD(rs, gdp, x, opt)
	}
	st.RefineSteps += Refine(rs, gdp, x, opt)
	pruneTiny(gdp, x, opt, rs)
	return x, st
}

// NewSEA is Algorithm 5: the full DCSGA solver with the smart-initialization
// heuristic. Vertices are tried in descending order of the upper bound µu and
// initialization stops as soon as µu cannot beat the best objective found,
// which in the paper's experiments prunes all but a handful of the n
// initializations. Runs on GD+ internally; the result is evaluated against
// the full difference graph gd (equal by Theorem 5: the support is a positive
// clique). When rs is cancelled the solver stops within one checkpoint
// interval and returns the best embedding found so far, tagged Interrupted.
func NewSEA(rs *runstate.State, gd *graph.Graph, opt GAOptions) GAResult {
	opt = opt.withDefaults()
	// Materialize GD+ once (single pass): every initialization below runs
	// thousands of coordinate-descent sweeps over it, which a flattened CSR
	// serves without per-edge filtering.
	gdp := gd.PositivePartCompact()
	n := gd.N()
	if n == 0 {
		return GAResult{X: simplex.New(0), PositiveClique: true}
	}
	best := simplex.Indicator(n, 0)
	bestF := 0.0
	var stats GAStats
	if gdp.M() == 0 {
		// No positive edge: the optimum of Eq. 6 is 0 on a single vertex.
		return newGAResult(gd, best, stats)
	}
	mu := initBounds(gdp, rs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if mu[order[a]] != mu[order[b]] {
			return mu[order[a]] > mu[order[b]]
		}
		return order[a] < order[b]
	})
	for _, u := range order {
		if mu[u] <= bestF {
			break
		}
		if rs.Cancelled() {
			break
		}
		x, st := runInit(gdp, u, false, opt, rs)
		stats.add(st)
		f := simplex.Affinity(gdp, x)
		if rs.Interrupted() && !gd.IsPositiveClique(x.Support()) {
			// Init cut mid-Refine: the support is not a positive clique, so
			// the gdp affinity (negative edges excluded) overstates the true
			// objective. Rank the leftover by its honest xᵀDx so it cannot
			// displace a completed clique it does not actually beat.
			f = simplex.Affinity(gd, x)
		}
		if f > bestF {
			best, bestF = x, f
		}
	}
	res := newGAResult(gd, best, stats)
	res.Interrupted = rs.Interrupted()
	return res
}

// SEACDRefineFull is the SEACD+Refine baseline of Section VI: one
// initialization per vertex of GD+ (no smart pruning), keeping the best
// positive-clique solution.
func SEACDRefineFull(rs *runstate.State, gd *graph.Graph, opt GAOptions) GAResult {
	return fullInit(gd, false, opt, rs)
}

// SEARefineFull is the SEA+Refine baseline: the original replicator-dynamics
// SEA from every vertex, plus Refinement. Its loose shrink convergence
// produces the expansion errors reported in Stats.ExpansionErrors.
func SEARefineFull(rs *runstate.State, gd *graph.Graph, opt GAOptions) GAResult {
	return fullInit(gd, true, opt, rs)
}

// fullInit drives the full-initialization baselines. A cancelled run skips
// the remaining initializations and keeps the best of those that ran, ranked
// as NewSEA ranks its leftovers, tagged Interrupted.
func fullInit(gd *graph.Graph, useReplicator bool, opt GAOptions, rs *runstate.State) GAResult {
	opt = opt.withDefaults()
	gdp := gd.PositivePartCompact() // see NewSEA
	n := gd.N()
	if n == 0 {
		return GAResult{X: simplex.New(0), PositiveClique: true}
	}
	best := simplex.Indicator(n, 0)
	bestF := 0.0
	var stats GAStats
	if gdp.M() == 0 {
		return newGAResult(gd, best, stats)
	}
	// Isolated vertices of GD+ can only yield f = 0; skip them the way the
	// original SEA implementation does.
	var starts []int
	for u := 0; u < n; u++ {
		if gdp.OutDegree(u) > 0 {
			starts = append(starts, u)
		}
	}
	results, interrupted := forEachInit(gdp, starts, useReplicator, opt, rs)
	for _, r := range results {
		if r.x == nil {
			continue // initialization skipped after cancellation
		}
		stats.add(r.st)
		// Deterministic winner: highest affinity, ties by start vertex order
		// (results arrive in starts order regardless of parallelism).
		f := simplex.Affinity(gdp, r.x)
		if interrupted && !gd.IsPositiveClique(r.x.Support()) {
			f = simplex.Affinity(gd, r.x) // cut mid-Refine: see NewSEA
		}
		if f > bestF {
			best, bestF = r.x, f
		}
	}
	res := newGAResult(gd, best, stats)
	res.Interrupted = interrupted
	return res
}

// initResult pairs one initialization's outcome with its statistics; cut
// records that the initialization observed cancellation (x is nil when it
// was skipped outright).
type initResult struct {
	x   *simplex.Vector
	st  GAStats
	cut bool
}

// forEachInit runs the init pipeline from every start vertex on
// opt.Parallelism workers (see par.Run), returning results indexed like
// starts plus whether any of the work was actually cut short. At degree 1
// every init runs inline on rs; with more workers each init forks its own
// run state (a State is single-goroutine). Every init polls before it
// starts, so after cancellation the remaining starts are skipped rather than
// each burning a full checkpoint interval. The interrupted flag ORs the
// inits' latches after the join — precise: a cancellation that lands only
// after every init completed reports false.
func forEachInit(gdp *graph.Graph, starts []int, useReplicator bool, opt GAOptions, rs *runstate.State) ([]initResult, bool) {
	results := make([]initResult, len(starts))
	workers := par.Workers(opt.Parallelism)
	par.Run(workers, len(starts), func(i int) {
		irs := rs
		if workers > 1 {
			irs = rs.Fork()
		}
		if !irs.Cancelled() {
			results[i].x, results[i].st = runInit(gdp, starts[i], useReplicator, opt, irs)
		}
		results[i].cut = irs.Interrupted()
	})
	interrupted := false
	for _, r := range results {
		interrupted = interrupted || r.cut
	}
	return results, interrupted
}

// Clique is a positive clique found by a DCSGA initialization, with its
// affinity-difference value and the embedding attaining it.
type Clique struct {
	S        []int
	Affinity float64
	X        *simplex.Vector
}

// CliqueEmbedding returns the locally-optimal embedding supported on the
// clique S of gd: coordinate descent from the uniform embedding to a local
// KKT point on S. For a positive clique this is the affinity-maximizing
// weighting of its members (the per-keyword weights of Table V). When rs is
// cancelled the descent stops early, at worst on the uniform embedding.
func CliqueEmbedding(rs *runstate.State, gd *graph.Graph, S []int) *simplex.Vector {
	x := simplex.Uniform(gd.N(), S)
	coordinateDescent(gd, x, S, 1e-9, 100000, rs)
	pruneTiny(gd, x, GAOptions{}, rs)
	return x
}

// CollectCliques runs SEACD+Refine from every vertex of GD+ and returns the
// distinct positive cliques found, de-duplicated and with cliques that are
// strict subsets of other found cliques removed — the procedure behind
// Table V (top-k topics) and Fig. 3 (clique-count histograms). Results are
// sorted by decreasing affinity, ties by support. When rs is cancelled the
// remaining initializations are skipped and the cliques already found are
// returned, with interrupted reporting the early stop.
func CollectCliques(rs *runstate.State, gd *graph.Graph, opt GAOptions) (cliques []Clique, interrupted bool) {
	opt = opt.withDefaults()
	gdp := gd.PositivePartCompact() // see NewSEA
	n := gd.N()
	var starts []int
	for u := 0; u < n; u++ {
		if gdp.OutDegree(u) > 0 {
			starts = append(starts, u)
		}
	}
	results, interrupted := forEachInit(gdp, starts, false, opt, rs)
	seen := make(map[string]bool)
	var out []Clique
	for _, r := range results {
		if rs.Checkpoint() {
			break // cancelled mid-harvest: keep the cliques already vetted
		}
		if r.x == nil {
			continue // initialization skipped after cancellation
		}
		S := r.x.Support()
		if len(S) == 0 {
			continue
		}
		// On an interrupted run, initializations cut mid-Refine may carry
		// non-clique supports, for which the gdp affinity below would
		// overstate the true xᵀDx (Theorem 5's equality only holds for
		// positive cliques) — those are dropped, keeping the contract that
		// only completed cliques are returned.
		if interrupted && !gd.IsPositiveClique(S) {
			continue
		}
		key := supportKey(S)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Clique{S: S, Affinity: simplex.Affinity(gdp, r.x), X: r.x})
	}
	out = removeSubsets(out, rs)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Affinity != out[j].Affinity {
			return out[i].Affinity > out[j].Affinity
		}
		return supportKey(out[i].S) < supportKey(out[j].S)
	})
	return out, interrupted
}

func supportKey(S []int) string {
	buf := make([]byte, 0, 8*len(S))
	//lint:allow loopcheck -- digit extraction over a support set: ≤ 20 iterations per vertex id, not graph-scale
	for _, v := range S {
		for v > 0 {
			buf = append(buf, byte('0'+v%10))
			v /= 10
		}
		buf = append(buf, ',')
	}
	return string(buf)
}

func removeSubsets(cs []Clique, rs *runstate.State) []Clique {
	// Sort by size descending; keep a clique only if it is not a subset of an
	// already-kept one.
	sort.Slice(cs, func(i, j int) bool { return len(cs[i].S) > len(cs[j].S) })
	var kept []Clique
	var keptSets []map[int]bool
	for _, c := range cs {
		if rs.Checkpoint() {
			break // kept so far are all maximal among those examined
		}
		sub := false
		for _, ks := range keptSets {
			all := true
			for _, v := range c.S {
				if !ks[v] {
					all = false
					break
				}
			}
			if all {
				sub = true
				break
			}
		}
		if sub {
			continue
		}
		set := make(map[int]bool, len(c.S))
		for _, v := range c.S {
			set[v] = true
		}
		kept = append(kept, c)
		keptSets = append(keptSets, set)
	}
	return kept
}

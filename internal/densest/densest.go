// Package densest solves the *traditional* densest-subgraph problem — all
// edge weights positive — exactly and approximately.
//
// The DCS paper builds on two classical results for positive-weight graphs:
// Goldberg's polynomial-time exact algorithm via minimum cuts [12] and
// Charikar's greedy 2-approximation [7]. DCSGreedy (Algorithm 2) runs the
// greedy on GD and GD+; its data-dependent ratio 2ρ_{D+}(S2)/ρ_D(S) relies on
// the 2-approximation guarantee holding on GD+. This package provides both
// algorithms: Exact is the oracle used in tests and ablations, Greedy is the
// production peeling routine reused by the core DCS algorithms.
//
// Density convention: the paper's ρ(S) = W(S)/|S| where W(S) counts every
// undirected edge twice (once per direction); see graph.TotalDegreeOf. Both
// functions here report that convention.
package densest

import (
	"math"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/maxflow"
	"github.com/dcslib/dcs/internal/par"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/vheap"
)

// Result is a dense subgraph along with its density.
type Result struct {
	S       []int   // vertex set, increasing order
	Density float64 // ρ(S) = W(S)/|S|, paper convention (edges counted twice)
}

// Greedy is Charikar's peeling algorithm (Algorithm 1 of the paper) run on a
// graph that may have positive or negative weights: repeatedly remove the
// vertex with minimum weighted degree, remember the best prefix. On graphs
// with only positive weights the result is a 2-approximation of the maximum
// average degree. Runs in O((m+n) log n) using an indexed heap.
//
// The empty graph yields an empty result; an edgeless graph yields a single
// vertex with density 0. The peel runs on a fresh Peeler over at most
// workers goroutines; see Peeler.Peel for the engine, its parallel round
// design and cancellation. Results are bitwise identical at every degree.
func Greedy(rs *runstate.State, g *graph.Graph, workers int) Result {
	var p Peeler
	return p.Peel(rs, g, workers, nil)
}

// Peeler is the peel engine with its workspace: component arenas, the
// per-component removal records, one indexed heap and the merge buffers. A
// solver that peels many graphs in a row (G_D then G_D⁺, every top-k pick,
// every ratio probe) keeps one Peeler and allocates the arrays once, growing
// them only for a larger graph. The zero value is ready to use; a Peeler is
// not safe for concurrent use.
type Peeler struct {
	// The graph of the current (or last) peel, as graph.CSR returned it.
	off     []int
	ids     []int32
	ws      []float64
	drop    []bool
	posOnly bool

	heap  vheap.Heap
	cid   []int32   // component id per vertex
	stack []int32   // discovery stack
	start []int32   // component c is verts[start[c]:start[c+1]]
	verts []int32   // vertices grouped by component, ascending in each
	loc   []int32   // loc[v] = index of v within its component
	deg   []float64 // initial weighted degree per vertex

	// Each component's recorded peel lives in the slots of order/popDeg
	// that its vertices occupy in verts: the removal order, the weighted
	// degree at each pop, the number of pops (short of the component size
	// when cancelled) and the initial total degree.
	order  []int32
	popDeg []float64
	popped []int32
	td     []float64

	next    []int32 // merge cursor: each component's next pop in order
	removed []int32 // global removal order
	keep    []bool
}

// Peel runs the greedy peel of g and returns the best prefix, with S built
// in S's storage when its capacity suffices (nil allocates). Results are
// bitwise identical at every worker count.
//
// A single global heap peel looks inherently sequential, but it decomposes
// exactly along connected components: edges never cross components, so a
// component's degrees change only when its own vertices are removed, and the
// subsequence of the global removal order restricted to a component C equals
// C's standalone peel order (the global minimum is always some component's
// front, and within a component both peels break degree ties by ascending
// vertex id). The engine therefore
//
//  1. partitions the graph into connected components (one O(n+m) sweep over
//     the CSR rows);
//  2. peels each component independently over local indices with the
//     indexed heap — these are the expensive O((m_C+n_C) log n_C) parts and
//     run on the worker pool when workers > 1 — recording each component's
//     removal order, pop-time degrees and initial total degree; a singleton
//     has no visible edge, so it is recorded as one pop at degree 0 without
//     a heap;
//  3. replays the global peel as a k-way merge of the per-component pop
//     sequences on the same heap, which holds each component's next pop
//     keyed by (pop-time degree, vertex id) — the exact priority the global
//     heap would use — evaluating the density of every global prefix with
//     the same floating-point operations in the same order.
//
// Every arithmetic step is either per-component-sequential or performed in
// the deterministic merge, so the result is the same at every parallelism
// degree; degree 1 runs the same kernel inline on p's single heap, while
// parallel workers each take a heap of their own. Rows are read straight
// from the CSR arrays with the view masks applied inline (see graph.CSR),
// whoever owns them — the heap or a file mapping. Cancellation is
// cooperative: each peel checkpoints once per pop, and a cancelled peel
// merges whatever prefixes completed — still a valid subgraph with an exact
// density, never empty on a non-empty graph.
func (p *Peeler) Peel(rs *runstate.State, g *graph.Graph, workers int, S []int) Result {
	n := g.N()
	if n == 0 {
		return Result{S: S[:0]}
	}
	p.off, p.ids, p.ws, p.drop, p.posOnly = g.CSR()
	nc, ok := p.components(n, rs)
	if !ok {
		// Cancelled during component discovery: fall back to the degenerate
		// single-vertex answer of Algorithm 2 (density 0), never empty.
		return Result{S: append(S[:0], 0)}
	}
	workers = par.Workers(workers)
	if workers <= 1 || nc < 2 {
		// Inline: rs is used directly, preserving its amortization counter and
		// latching interruption on the caller's state.
		for c := 0; c < nc; c++ {
			p.peelComponent(c, &p.heap, rs)
		}
	} else {
		// One heap per worker: tasks borrow one for the component's peel.
		spare := make([]vheap.Heap, workers-1)
		heaps := make(chan *vheap.Heap, workers)
		heaps <- &p.heap
		for i := range spare {
			heaps <- &spare[i]
		}
		cut := make([]bool, nc)
		par.Run(workers, nc, func(c int) {
			// A State is single-goroutine; fork one per task. Fork only reads
			// the immutable done channel, so concurrent forks are safe.
			wrs := rs.Fork()
			h := <-heaps
			p.peelComponent(c, h, wrs)
			heaps <- h
			cut[c] = wrs.Interrupted()
		})
		for _, c := range cut {
			if c {
				// A worker can only observe cancellation after the context is
				// done, so this poll latches the caller's state too.
				rs.Cancelled()
				break
			}
		}
	}
	return p.merge(n, nc, rs, S)
}

// visible reports whether the row entry (to, w) survives the view masks.
func (p *Peeler) visible(to int32, w float64) bool {
	return !(p.posOnly && w <= 0) && (p.drop == nil || !p.drop[to])
}

// grow returns s resliced to length n, reallocated only when too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// components partitions all vertices (masked and isolated ones form
// singleton components) into connected components, returning their count,
// and records each vertex's initial weighted degree from the same row walk.
// Components are ordered by smallest member and list their vertices in
// ascending order, and loc maps each vertex to its index within its
// component — both facts the peel and merge rely on for deterministic
// tie-breaking. A run cancelled mid-search reports !ok: a partial partition
// would mis-route the peel.
func (p *Peeler) components(n int, rs *runstate.State) (nc int, ok bool) {
	cid := grow(p.cid, n)
	for i := range cid {
		cid[i] = -1
	}
	p.cid = cid
	p.deg = grow(p.deg, n)
	clear(p.deg)
	p.stack = p.stack[:0]
	for v := 0; v < n; v++ {
		if rs.Checkpoint() {
			return 0, false
		}
		if cid[v] >= 0 {
			continue
		}
		id := int32(nc)
		nc++
		cid[v] = id
		if p.drop != nil && p.drop[v] {
			continue // a masked vertex has no visible edge
		}
		p.stack = append(p.stack, int32(v))
		for len(p.stack) > 0 {
			u := p.stack[len(p.stack)-1]
			p.stack = p.stack[:len(p.stack)-1]
			var d float64
			lo, hi := p.off[u], p.off[u+1]
			ws := p.ws[lo:hi]
			for i, to := range p.ids[lo:hi] {
				if !p.visible(to, ws[i]) {
					continue
				}
				d += ws[i]
				if cid[to] < 0 {
					cid[to] = id
					p.stack = append(p.stack, to)
				}
			}
			p.deg[u] = d
		}
	}
	// Counting sort by component id; popped serves as the fill cursor and
	// ends holding each component's size.
	p.start = grow(p.start, nc+1)
	p.popped = grow(p.popped, nc)
	p.td = grow(p.td, nc)
	clear(p.start)
	clear(p.popped)
	for _, id := range cid {
		p.start[id+1]++
	}
	for c := 0; c < nc; c++ {
		p.start[c+1] += p.start[c]
	}
	p.verts = grow(p.verts, n)
	p.loc = grow(p.loc, n)
	p.order = grow(p.order, n)
	p.popDeg = grow(p.popDeg, n)
	for v, id := range cid {
		i := p.popped[id]
		p.popped[id]++
		p.verts[p.start[id]+i] = int32(v)
		p.loc[v] = i
	}
	return nc, true
}

// peelComponent runs the heap peel restricted to component c, over local
// indices (the heap's tie-break by local index matches ascending global id,
// since the component's vertices are sorted). One checkpoint per pop,
// exactly like the classic single-heap loop.
func (p *Peeler) peelComponent(c int, h *vheap.Heap, rs *runstate.State) {
	lo, hi := p.start[c], p.start[c+1]
	verts, order, popDeg := p.verts[lo:hi], p.order[lo:hi], p.popDeg[lo:hi]
	if len(verts) == 1 {
		// No visible edge: one pop at degree 0, total degree 0.
		p.td[c], p.popped[c] = 0, 0
		if !rs.Checkpoint() {
			order[0], popDeg[0], p.popped[c] = verts[0], 0, 1
		}
		return
	}
	// The local degrees are staged in popDeg: Reset copies them into the
	// heap before the first pop overwrites a slot.
	var td float64
	for i, v := range verts {
		d := p.deg[v]
		popDeg[i] = d
		td += d
	}
	h.Reset(popDeg)
	k := 0
	for h.Len() > 0 {
		if rs.Checkpoint() {
			break
		}
		i, di := h.PopMin()
		v := verts[i]
		order[k], popDeg[k] = v, di
		k++
		lo, hi := p.off[v], p.off[v+1]
		ws := p.ws[lo:hi]
		for i, to := range p.ids[lo:hi] {
			if !p.visible(to, ws[i]) {
				continue
			}
			if j := int(p.loc[to]); h.Contains(j) {
				h.Add(j, -ws[i])
			}
		}
	}
	p.popped[c], p.td[c] = int32(k), td
}

// merge replays the global peel from the per-component records: a k-way
// merge by (pop-time degree, vertex id) — the global heap's priority — while
// tracking W(S) and the best prefix density exactly as the classic loop did.
// Cancellation stops the replay and keeps the best prefix evaluated so far —
// the same contract as a peel cut short.
func (p *Peeler) merge(n, nc int, rs *runstate.State, S []int) Result {
	// W(S) in the paper convention is the sum of in-subgraph weighted degrees;
	// summed in component order, deterministically at every degree.
	var totalDeg float64
	for _, td := range p.td[:nc] {
		totalDeg += td
	}
	// The heap, keyed by vertex id, holds each component's next pop at its
	// pop-time degree: PopMin yields the global peel's next removal.
	h := &p.heap
	h.Clear(n)
	p.next = grow(p.next, nc)
	for c := 0; c < nc; c++ {
		if rs.Checkpoint() {
			// Any interleaving of component prefixes is a valid partial
			// replay; the loop below stops at its first checkpoint.
			break
		}
		if p.popped[c] > 0 {
			lo := p.start[c]
			p.next[c] = lo
			h.Push(int(p.order[lo]), p.popDeg[lo])
		}
	}

	bestDensity := math.Inf(-1)
	bestSize := 0
	p.removed = grow(p.removed, n)
	removed := p.removed[:0]
	size := n
	for size >= 1 {
		// ≥ so that ties prefer the smaller prefix: on a graph with no positive
		// edge the result is then a single vertex (density 0), matching the
		// degenerate case of Algorithm 2.
		if rho := totalDeg / float64(size); rho >= bestDensity {
			bestDensity = rho
			bestSize = size
		}
		if h.Len() == 0 {
			break // cancelled peels exhausted; keep the best evaluated prefix
		}
		if rs.Checkpoint() {
			break // after ≥1 evaluation, so bestSize is set and the keep slice is consistent
		}
		v, dv := h.Min()
		removed = append(removed, int32(v))
		// Removing v: v's degree leaves W once, and every remaining neighbor
		// loses w(u,v) from its degree — so W(S) drops by 2·dv in total.
		totalDeg -= 2 * dv
		if c := p.cid[v]; p.next[c]+1 < p.start[c]+p.popped[c] {
			p.next[c]++
			h.ReplaceMin(int(p.order[p.next[c]]), p.popDeg[p.next[c]])
		} else {
			h.PopMin()
		}
		size--
	}
	// The best prefix keeps the vertices *not yet removed* when |S| == bestSize,
	// i.e. everything except the first n-bestSize removals.
	p.keep = grow(p.keep, n)
	keep := p.keep
	for v := range keep {
		keep[v] = true
	}
	for _, v := range removed[:n-bestSize] {
		keep[v] = false
	}
	if cap(S) < bestSize {
		S = make([]int, 0, bestSize)
	}
	S = S[:0]
	for v, in := range keep {
		if in {
			S = append(S, v)
		}
	}
	return Result{S: S, Density: bestDensity}
}

// Exact computes the maximum-average-degree subgraph of a graph with
// non-negative edge weights using Goldberg's binary search over minimum cuts.
// It panics if g has a negative edge weight — for graphs with negative
// weights the problem is NP-hard (Theorem 1 of the paper) and Greedy or the
// core DCS algorithms must be used instead.
//
// The returned density follows the paper convention (each edge counted
// twice). Intended for validation on small-to-medium graphs: each probe of
// the binary search solves one max-flow on a network with n+2 vertices and
// m+2n arcs.
func Exact(g *graph.Graph) Result {
	n := g.N()
	if n == 0 {
		return Result{}
	}
	var sumW float64 // undirected sum
	g.VisitEdges(func(u, v int, w float64) {
		if w < 0 {
			panic("densest: Exact requires non-negative edge weights")
		}
		sumW += w
	})
	if sumW == 0 {
		return Result{S: []int{0}, Density: 0}
	}
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		deg[v] = g.WeightedDegree(v)
	}

	// Binary search on the undirected density gU = W_undirected(S)/|S|.
	// Feasibility test: exists S with W_u(S) > gU·|S| ⇔ min cut < sumW in the
	// standard Goldberg network. Two distinct achievable densities differ by
	// at least 1/(n(n-1)) when weights are integers; for float weights we
	// iterate to a fixed relative precision and return the best cut found.
	lo, hi := 0.0, sumW
	var bestS []int
	probe := func(gU float64) []int {
		// Network: s=n, t=n+1.
		fn := maxflow.New(n + 2)
		s, t := n, n+1
		for v := 0; v < n; v++ {
			fn.AddArc(s, v, sumW)
			fn.AddArc(v, t, sumW+2*gU-deg[v])
		}
		g.VisitEdges(func(u, v int, w float64) {
			fn.AddEdge(u, v, w)
		})
		fn.Solve(s, t)
		side := fn.MinCutSide(s)
		var S []int
		for v := 0; v < n; v++ {
			if side[v] {
				S = append(S, v)
			}
		}
		return S
	}
	// 64 iterations give ~2^-64 relative precision: far below any meaningful
	// density gap for float64 weights.
	for it := 0; it < 64 && hi-lo > 1e-12*(1+hi); it++ {
		mid := (lo + hi) / 2
		S := probe(mid)
		if len(S) > 0 {
			bestS = S
			lo = mid
		} else {
			hi = mid
		}
	}
	if bestS == nil {
		// Even density 0+ was infeasible numerically: fall back to best single
		// vertex (density 0) — can only happen with all-zero weights, handled
		// above, but keep a safe fallback.
		bestS = []int{0}
	}
	return Result{S: bestS, Density: g.AverageDegreeOf(bestS)}
}

// BruteForce scans all non-empty subsets (n ≤ 24) for the maximum average
// degree, honoring negative weights. Test oracle only.
func BruteForce(g *graph.Graph) Result {
	n := g.N()
	if n == 0 {
		return Result{}
	}
	if n > 24 {
		panic("densest: BruteForce limited to n ≤ 24")
	}
	best := Result{Density: math.Inf(-1)}
	//lint:allow loopcheck -- test-only oracle, hard-capped at n ≤ 24 subsets above
	for mask := 1; mask < 1<<uint(n); mask++ {
		var S []int
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				S = append(S, v)
			}
		}
		if rho := g.AverageDegreeOf(S); rho > best.Density {
			best = Result{S: S, Density: rho}
		}
	}
	return best
}

// Package graph provides the weighted undirected graph substrate used by all
// density-contrast-subgraph (DCS) algorithms.
//
// Vertices are dense integers in [0, n). Edge weights are float64 and may be
// negative: the central object of the DCS problem is the difference graph
// GD = G2 − αG1, whose affinity matrix D = A2 − αA1 mixes positive and
// negative entries.
//
// # Storage: compressed sparse row
//
// A Graph stores its adjacency in CSR form, in the layout of the .dcsg v2
// file: an offsets array plus two parallel arrays holding every directed edge
// entry (each undirected edge appears twice) — neighbor ids ([]int32) and
// weights ([]float64) — so the neighbor list of u is ids[off[u]:off[u+1]]
// with weights ws[off[u]:off[u+1]], kept sorted by neighbor id. Sortedness
// lets Difference build GD with a linear merge and lets Weight answer point
// queries by binary search; the flat layout means a whole-graph edge scan is
// a single cache-friendly array walk with no per-vertex indirection. Heap
// graphs and graphs over a read-only file mapping (FromCSR) differ only in
// who owns the arrays.
//
// # Views: vertex-masked graphs without rebuilding
//
// WithoutVertices (hide all edges incident to a vertex set) does not copy the
// CSR arrays. It returns a view: a Graph that shares the backing storage and
// carries a vertex mask. Constructing a view costs O(n) for the mask plus
// O(Σ deg(v)) over the newly dropped vertices to update the edge counts, and
// performs no per-vertex row allocations, which is what makes iterated top-k
// mining cheap. Views compose: WithoutVertices of a view masks both sets.
//
// Every method is mask-aware and views satisfy exactly the same contracts as
// plain graphs. Neighbors returns a freshly allocated copy; hot loops use
// VisitNeighbors, which is allocation-free on plain graphs and views alike,
// or walk the CSR arrays directly. Compact flattens a view into a plain graph
// when one is needed.
//
// GD+, the positive part that the affinity solvers and the Greedy(GD+)
// candidate run on, is not a view: PositivePart materializes it in one pass
// and memoizes it on plain graphs.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// MaxVertices is the largest vertex count a Graph holds: neighbor ids are
// int32, matching the binary codec's on-disk ids. NewBuilder panics and
// FromCSR errors beyond it, so readers of untrusted sizes check it first.
const MaxVertices = 1<<31 - 1

// Neighbor is one entry of an adjacency list, as Neighbors returns it: an
// incident edge to vertex To with weight W. W is never zero in a built Graph.
type Neighbor struct {
	To int
	W  float64
}

// Edge is an undirected edge (U, V) with weight W. A canonical edge has U < V.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an immutable undirected weighted graph in CSR form, possibly a
// masked view over another graph's storage (see the package comment). The
// zero value is an empty graph with no vertices; use NewBuilder or FromEdges
// to construct non-empty graphs.
type Graph struct {
	n      int
	m      int     // number of visible undirected edges
	totalW float64 // sum of weights over visible undirected edges

	// CSR storage, shared (never mutated) between a graph and its views.
	// Every undirected edge appears as two directed entries. The arrays
	// may alias a read-only memory mapping (FromCSR); see csr.go.
	off []int     // len n+1; row u is entries off[u]:off[u+1]
	ids []int32   // neighbor id of entry i
	ws  []float64 // weight of entry i

	// release tears down externally owned storage (e.g. munmap); nil on
	// heap graphs and on views. See Release.
	release func()

	// pos memoizes PositivePart on plain graphs, so the several solver
	// entry points deriving GD+ from one difference graph share a single
	// materialization. Views never populate it.
	pos atomic.Pointer[Graph]

	// drop[v] hides every edge incident to v; nil on a plain graph.
	drop []bool

	// reused marks a graph living in caller-owned storage that the next
	// ...Into call overwrites (PositivePartInto, Union.DifferenceAlphaInto);
	// such a graph never memoizes its positive part, since the memo would
	// outlive the storage it describes.
	reused bool
}

// entry returns base entry i: its neighbor id and weight.
func (g *Graph) entry(i int) (to int, w float64) { return int(g.ids[i]), g.ws[i] }

// plain reports whether g has no mask (storage = visible graph).
func (g *Graph) plain() bool { return g.drop == nil }

// dropped reports whether vertex u is hidden by the vertex mask.
func (g *Graph) dropped(u int) bool { return g.drop != nil && g.drop[u] }

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of (visible) undirected edges.
func (g *Graph) M() int { return g.m }

// TotalWeight returns the sum of edge weights over all (visible) undirected
// edges.
func (g *Graph) TotalWeight() float64 { return g.totalW }

// IsView reports whether g is a masked view sharing another graph's storage.
func (g *Graph) IsView() bool { return !g.plain() }

// Compact materializes g into a plain CSR graph with no mask. It returns g
// itself when g is already plain; otherwise it copies the visible entries
// into fresh heap arrays (three allocations), keeping the view's edge count
// and total weight.
func (g *Graph) Compact() *Graph {
	if g.plain() {
		return g
	}
	c := g.mapWeights(func(w float64) float64 { return w })
	c.m, c.totalW = g.m, g.totalW
	return c
}

// Neighbors returns the visible adjacency list of u, sorted by neighbor id,
// as a freshly allocated copy the caller owns. Hot loops use VisitNeighbors
// or the CSR arrays instead.
func (g *Graph) Neighbors(u int) []Neighbor {
	if g.dropped(u) {
		return nil
	}
	out := make([]Neighbor, 0, g.off[u+1]-g.off[u])
	for i := g.off[u]; i < g.off[u+1]; i++ {
		if to, w := g.entry(i); !g.dropped(to) {
			out = append(out, Neighbor{To: to, W: w})
		}
	}
	return out
}

// VisitNeighbors calls fn for every visible neighbor of u in ascending id
// order. It never allocates, on plain graphs and views alike; it is the
// iteration primitive the solvers use on derived graphs.
func (g *Graph) VisitNeighbors(u int, fn func(v int, w float64)) {
	if g.dropped(u) {
		return
	}
	lo, hi := g.off[u], g.off[u+1]
	ids, ws := g.ids[lo:hi], g.ws[lo:hi]
	ws = ws[:len(ids)] // drops ws's bounds checks in the loops
	if g.plain() {
		for i, to := range ids {
			fn(int(to), ws[i])
		}
		return
	}
	for i, to := range ids {
		if !g.dropped(int(to)) {
			fn(int(to), ws[i])
		}
	}
}

// OutDegree returns the number of (visible) edges incident to u. O(1) on a
// plain graph, O(deg u) on a view.
func (g *Graph) OutDegree(u int) int {
	if g.plain() {
		return g.off[u+1] - g.off[u]
	}
	if g.dropped(u) {
		return 0
	}
	d := 0
	for _, to := range g.ids[g.off[u]:g.off[u+1]] {
		if !g.dropped(int(to)) {
			d++
		}
	}
	return d
}

// WeightedDegree returns the sum of weights of edges incident to u, i.e. u's
// degree W(u; G) in the whole graph.
func (g *Graph) WeightedDegree(u int) float64 {
	var s float64
	g.VisitNeighbors(u, func(_ int, w float64) { s += w })
	return s
}

// Weight returns the weight of edge (u, v), or 0 if the edge does not exist
// (or is hidden by a mask).
func (g *Graph) Weight(u, v int) float64 {
	if g.dropped(u) || g.dropped(v) {
		return 0
	}
	lo, hi := g.off[u], g.off[u+1]
	ids := g.ids[lo:hi]
	i := sort.Search(len(ids), func(i int) bool { return int(ids[i]) >= v })
	if i < len(ids) && int(ids[i]) == v {
		return g.ws[lo+i]
	}
	return 0
}

// HasEdge reports whether the edge (u, v) exists (and is visible).
func (g *Graph) HasEdge(u, v int) bool { return g.Weight(u, v) != 0 }

// Edges returns every visible undirected edge once, with U < V, sorted by
// (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	g.VisitEdges(func(u, v int, w float64) {
		out = append(out, Edge{U: u, V: v, W: w})
	})
	return out
}

// VisitEdges calls fn for every visible undirected edge once, with u < v.
func (g *Graph) VisitEdges(fn func(u, v int, w float64)) {
	if g.plain() {
		for u := 0; u < g.n; u++ {
			lo, hi := g.off[u], g.off[u+1]
			row, ws := g.ids[lo:hi], g.ws[lo:hi]
			ws = ws[:len(row)] // drops ws's bounds check in the loop
			for i, to := range row {
				if int(to) > u {
					fn(u, int(to), ws[i])
				}
			}
		}
		return
	}
	for u := 0; u < g.n; u++ {
		if g.dropped(u) {
			continue
		}
		for i := g.off[u]; i < g.off[u+1]; i++ {
			if to, w := g.entry(i); to > u && !g.dropped(to) {
				fn(u, to, w)
			}
		}
	}
}

// TotalDegreeOf returns W(S) = Σ_{(u,v)∈E(S)} A(u,v) exactly as the paper
// defines it: E(S) contains both (u,v) and (v,u), so every undirected edge
// inside S contributes its weight twice. Equivalently, W(S) is the sum over
// u ∈ S of u's weighted degree inside G(S); a unit-weight k-clique has
// W(S) = k(k−1) and average degree ρ(S) = k−1. Duplicate entries in S are an
// error in the caller; the result is then undefined.
func (g *Graph) TotalDegreeOf(S []int) float64 {
	in := acquireMark(g.n)
	for _, v := range S {
		in.b[v] = true
	}
	var w float64
	for _, u := range S {
		g.VisitNeighbors(u, func(v int, wt float64) {
			if in.b[v] {
				w += wt
			}
		})
	}
	in.release(S)
	return w
}

// SubgraphMetrics returns the three density figures of S from a single walk:
// W(S), ρ(S) = W(S)/|S|, and the edge density W(S)/|S|². All are 0 for an
// empty S. Result constructors use this instead of three separate calls that
// would each rebuild the membership set.
func (g *Graph) SubgraphMetrics(S []int) (w, avgDeg, edgeDensity float64) {
	if len(S) == 0 {
		return 0, 0, 0
	}
	w = g.TotalDegreeOf(S)
	return w, w / float64(len(S)), w / float64(len(S)*len(S))
}

// AverageDegreeOf returns ρ(S) = W(S)/|S|, the average-degree density of the
// subgraph induced by S. It returns 0 for an empty S.
func (g *Graph) AverageDegreeOf(S []int) float64 {
	if len(S) == 0 {
		return 0
	}
	return g.TotalDegreeOf(S) / float64(len(S))
}

// EdgeDensityOf returns W(S)/|S|², the edge density of the subgraph induced
// by S (the discrete analogue of graph affinity). It returns 0 for empty S.
func (g *Graph) EdgeDensityOf(S []int) float64 {
	if len(S) == 0 {
		return 0
	}
	return g.TotalDegreeOf(S) / float64(len(S)*len(S))
}

// DegreeIn returns W(u; G(S)): u's weighted degree inside the subgraph
// induced by the membership set in (in[v] == true iff v ∈ S).
func (g *Graph) DegreeIn(u int, in []bool) float64 {
	var s float64
	g.VisitNeighbors(u, func(v int, w float64) {
		if in[v] {
			s += w
		}
	})
	return s
}

// Induced returns the subgraph induced by S as a standalone Graph over
// vertices [0, len(S)), together with the mapping local→original (which is a
// copy of S). Vertices in S keep their relative order.
func (g *Graph) Induced(S []int) (*Graph, []int) {
	orig := make([]int, len(S))
	copy(orig, S)
	local := acquireID(g.n)
	for i, v := range S {
		local.b[v] = i + 1 // 0 means "not in S"
	}
	b := NewBuilder(len(S))
	for i, v := range S {
		g.VisitNeighbors(v, func(to int, w float64) {
			if j := local.b[to]; j != 0 && to > v {
				b.AddEdge(i, j-1, w)
			}
		})
	}
	local.release(S)
	return b.Build(), orig
}

// IsPositiveClique reports whether the subgraph induced by S is a clique all
// of whose edges have strictly positive weight. Singletons and the empty set
// are positive cliques by convention.
func (g *Graph) IsPositiveClique(S []int) bool {
	for i := 0; i < len(S); i++ {
		for j := i + 1; j < len(S); j++ {
			if g.Weight(S[i], S[j]) <= 0 {
				return false
			}
		}
	}
	return true
}

// MaxEdge returns the maximum-weight edge of the graph and true, or a zero
// Edge and false when the graph has no edges.
func (g *Graph) MaxEdge() (Edge, bool) {
	best := Edge{}
	found := false
	g.VisitEdges(func(u, v int, w float64) {
		if !found || w > best.W {
			best = Edge{U: u, V: v, W: w}
			found = true
		}
	})
	return best, found
}

// PositivePart returns GD+: the graph over the same vertex set containing
// exactly the visible edges of g with strictly positive weight, as a plain
// materialized graph built in a single pass. The solvers call it at their
// entry: they make many passes over GD+, so the flat allocations amortize
// immediately. On plain graphs the result is memoized, so the several solver
// entry points (and repeated dcsd requests against a cached difference
// graph) that derive GD+ from the same graph share one materialization; the
// memo is safe because graphs are immutable.
func (g *Graph) PositivePart() *Graph {
	if p := g.pos.Load(); p != nil {
		return p
	}
	p := g.mapWeights(positiveWeight)
	if g.plain() && !g.reused {
		g.pos.Store(p)
	}
	return p
}

// PositivePartInto is PositivePart for callers that derive GD+ once per
// iteration of a loop. A plain graph returns its shared memo, exactly as
// PositivePart does. A view or a graph in reused storage (whose GD+ cannot
// be memoized) has GD+ materialized into dst's arrays, grown only when too
// small; the result is dst, valid until dst is next overwritten.
func (g *Graph) PositivePartInto(dst *Graph) *Graph {
	if g.plain() && !g.reused {
		return g.PositivePart()
	}
	dst.reused = true
	return g.mapWeightsInto(dst, positiveWeight)
}

// positiveWeight is the GD+ weight map: non-positive weights become 0 and
// are dropped, like every zero mapWeights result.
func positiveWeight(w float64) float64 {
	if w > 0 {
		return w
	}
	return 0
}

// WithoutVertices returns the graph with every vertex of S isolated (all its
// incident edges removed). The vertex count is unchanged, so ids remain
// stable — used by iterative top-k contrast mining to exclude previously
// found subgraphs. The result is a view sharing g's storage: cost is O(n)
// for the copied vertex mask plus O(Σ deg(v)) over the newly dropped
// vertices to update the edge counts, with no row allocations.
func (g *Graph) WithoutVertices(S []int) *Graph {
	drop := make([]bool, g.n)
	if g.drop != nil {
		copy(drop, g.drop)
	}
	newly := make([]int, 0, len(S))
	for _, v := range S {
		if !drop[v] {
			drop[v] = true
			newly = append(newly, v)
		}
	}
	v := &Graph{n: g.n, m: g.m, totalW: g.totalW, off: g.off, ids: g.ids, ws: g.ws, drop: drop}
	// Subtract every edge that just became invisible: edges visible in g with
	// at least one endpoint newly dropped. An edge between two newly dropped
	// vertices is walked from both rows; the smaller endpoint counts it.
	for _, u := range newly {
		for i := g.off[u]; i < g.off[u+1]; i++ {
			to, w := g.entry(i)
			if g.dropped(to) {
				continue // was not visible in g
			}
			if to < u && drop[to] && !g.dropped(to) {
				continue // both ends newly dropped: counted from to's row
			}
			v.m--
			v.totalW -= w
		}
	}
	return v
}

// Negate returns the graph with every edge weight multiplied by −1. Mining a
// "disappearing" DCS on GD is mining an "emerging" DCS on Negate(GD).
func (g *Graph) Negate() *Graph {
	return g.Scale(-1)
}

// Scale returns the graph with every edge weight multiplied by c. A zero c
// yields an edgeless graph. The result is a plain (materialized) graph even
// when g is a view: scaling changes weights, which a mask cannot express.
func (g *Graph) Scale(c float64) *Graph {
	if c == 0 {
		return &Graph{n: g.n, off: make([]int, g.n+1)}
	}
	return g.mapWeights(func(w float64) float64 { return w * c })
}

// mapWeights materializes a plain graph applying f to every visible edge
// weight; edges for which f returns 0 are dropped. One pass, three
// allocations.
func (g *Graph) mapWeights(f func(w float64) float64) *Graph {
	return g.mapWeightsInto(new(Graph), f)
}

// mapWeightsInto is mapWeights writing into dst's storage, which it grows
// only when too small; dst is returned. dst must be a fresh graph or one an
// earlier ...Into call produced.
func (g *Graph) mapWeightsInto(dst *Graph, f func(w float64) float64) *Graph {
	// 2m bounds the visible entries, so the arrays are written by index.
	off := grow(dst.off, g.n+1)
	ids, ws := grow(dst.ids, 2*g.m), grow(dst.ws, 2*g.m)
	ws = ws[:len(ids)] // one bounds check covers both stores
	k, m := 0, 0
	var tw float64
	for u := 0; u < g.n; u++ {
		off[u] = k
		if g.dropped(u) {
			continue
		}
		for i := g.off[u]; i < g.off[u+1]; i++ {
			to, bw := g.entry(i)
			if g.dropped(to) {
				continue
			}
			w := f(bw)
			if w == 0 {
				continue
			}
			ids[k], ws[k] = int32(to), w
			k++
			if to > u {
				m++
				tw += w
			}
		}
	}
	off[g.n] = k
	dst.n, dst.m, dst.totalW, dst.off, dst.ids, dst.ws = g.n, m, tw, off, ids[:k], ws[:k]
	return dst
}

// grow returns s resliced to length n, reallocated only when too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Stats summarizes a (difference) graph the way Table II of the paper does.
type Stats struct {
	N       int     // number of vertices
	MPos    int     // edges with positive weight
	MNeg    int     // edges with negative weight
	MaxW    float64 // maximum edge weight (0 when there are no edges)
	MinW    float64 // minimum edge weight (0 when there are no edges)
	AvgW    float64 // average edge weight over all edges
	TotalW  float64 // sum of all edge weights
	MaxDeg  int     // maximum unweighted degree
	Density float64 // m⁺/n, the density measure used by Fig. 2
}

// ComputeStats returns Table-II style statistics for the graph.
func (g *Graph) ComputeStats() Stats {
	st := Stats{N: g.n, TotalW: g.totalW}
	first := true
	g.VisitEdges(func(u, v int, w float64) {
		if w > 0 {
			st.MPos++
		} else if w < 0 {
			st.MNeg++
		}
		if first {
			st.MaxW, st.MinW = w, w
			first = false
		} else {
			st.MaxW = math.Max(st.MaxW, w)
			st.MinW = math.Min(st.MinW, w)
		}
	})
	if g.m > 0 {
		st.AvgW = g.totalW / float64(g.m)
	}
	for u := 0; u < g.n; u++ {
		if d := g.OutDegree(u); d > st.MaxDeg {
			st.MaxDeg = d
		}
	}
	if g.n > 0 {
		st.Density = float64(st.MPos) / float64(g.n)
	}
	return st
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d m+=%d m-=%d maxW=%.4g minW=%.4g avgW=%.4g",
		s.N, s.MPos, s.MNeg, s.MaxW, s.MinW, s.AvgW)
}

// Package cores computes the k-core decomposition of an unweighted view of a
// graph.
//
// The core number τ(u) is the largest k such that u belongs to a subgraph in
// which every vertex has (unweighted) degree at least k. NewSEA (Algorithm 5)
// uses τu + 1 as a cheap upper bound on the size of the largest clique in
// GD+ that contains u, giving the initialization bound µu = τu·wu/(τu+1)
// (Theorem 6). The implementation is the classical O(m) bin-sort peeling of
// Batagelj–Zaveršnik, which the paper cites through [22].
package cores

import (
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// Numbers returns the core number τ(u) of every vertex of g. Edge weights are
// ignored; only the topology matters. A peel interrupted through rs returns
// the in-progress array: every entry is an upper bound on the true core
// number (peeling only ever decreases values), so callers using τ for
// pruning bounds stay sound on a cancelled run.
func Numbers(rs *runstate.State, g *graph.Graph) []int {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bin sort vertices by degree.
	bin := make([]int, maxDeg+2) // bin[d] = start index of degree-d block in vert
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	vert := make([]int, n) // vertices sorted by current degree
	pos := make([]int, n)  // pos[v] = index of v in vert
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = v
		bin[deg[v]]++
	}
	// Restore bin starts.
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	core := make([]int, n)
	copy(core, deg)
	for i := 0; i < n; i++ {
		if rs.Checkpoint() {
			break // partial peel: remaining entries are valid upper bounds
		}
		v := vert[i]
		g.VisitNeighbors(v, func(u int, _ float64) {
			if core[u] > core[v] {
				// Move u one bin down: swap it with the first vertex of its
				// current degree block, then shrink the block.
				du := core[u]
				pu := pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					vert[pu], vert[pw] = w, u
					pos[u], pos[w] = pw, pu
				}
				bin[du]++
				core[u]--
			}
		})
	}
	return core
}

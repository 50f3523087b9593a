// Package clique provides exact maximum-clique search and maximal-clique
// enumeration on the unweighted topology of a graph.
//
// The DCS paper leans on cliques in three places: the NP-hardness reductions
// for both problem variants go through maximum clique; the Motzkin–Straus
// theorem ties graph affinity maxima to the clique number (max xᵀAx over the
// simplex is 1 − 1/ω(G) for unweighted graphs); and Theorem 5 shows optimal
// DCSGA solutions are positive cliques of GD. This package supplies the exact
// oracles used to validate those claims in tests, plus Bron–Kerbosch
// enumeration for the clique-count experiment (Fig. 3).
package clique

import (
	"sort"

	"github.com/dcslib/dcs/internal/graph"
)

// Maximum returns a maximum clique of g (ignoring edge weights; any nonzero
// edge connects) using branch-and-bound with greedy colouring bounds. It is
// exact and intended for graphs up to a few hundred vertices (tests and small
// experiments). Vertices are returned in increasing order. The empty graph
// yields an empty clique; an edgeless graph yields a single vertex.
func Maximum(g *graph.Graph) []int {
	n := g.N()
	if n == 0 {
		return nil
	}
	adj := buildAdj(g)
	// Order vertices by degeneracy-ish heuristic: descending degree.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.OutDegree(order[i]), g.OutDegree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	s := &solver{adj: adj}
	s.best = []int{order[0]}
	s.expand(order, nil)
	out := make([]int, len(s.best))
	copy(out, s.best)
	sort.Ints(out)
	return out
}

// Number returns ω(g), the clique number.
func Number(g *graph.Graph) int {
	return len(Maximum(g))
}

type solver struct {
	adj  []map[int]bool
	best []int
}

// expand grows the current clique cur using candidate set cand (vertices
// adjacent to everything in cur), with greedy-colouring pruning.
func (s *solver) expand(cand, cur []int) {
	if len(cand) == 0 {
		if len(cur) > len(s.best) {
			s.best = append(s.best[:0], cur...)
		}
		return
	}
	colors := colorSort(cand, s.adj)
	for i := len(cand) - 1; i >= 0; i-- {
		if len(cur)+colors[i] <= len(s.best) {
			return // colouring bound: nothing better remains
		}
		v := cand[i]
		var next []int
		for j := 0; j < i; j++ {
			if s.adj[v][cand[j]] {
				next = append(next, cand[j])
			}
		}
		s.expand(next, append(cur, v))
	}
}

// colorSort greedily colours cand (in place, reordering it so colour classes
// are contiguous and ascending) and returns colors[i] = colour of cand[i]
// (1-based). A clique extending through cand[i] can add at most colors[i]
// vertices from cand[0..i].
func colorSort(cand []int, adj []map[int]bool) []int {
	n := len(cand)
	classes := make([][]int, 0, 8)
	for _, v := range cand {
		placed := false
		for c := range classes {
			ok := true
			for _, u := range classes[c] {
				if adj[v][u] {
					ok = false
					break
				}
			}
			if ok {
				classes[c] = append(classes[c], v)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, []int{v})
		}
	}
	colors := make([]int, 0, n)
	out := cand[:0]
	for c, class := range classes {
		for _, v := range class {
			out = append(out, v)
			colors = append(colors, c+1)
		}
	}
	return colors
}

func buildAdj(g *graph.Graph) []map[int]bool {
	adj := make([]map[int]bool, g.N())
	for v := 0; v < g.N(); v++ {
		row := make(map[int]bool, g.OutDegree(v))
		g.VisitNeighbors(v, func(u int, _ float64) { row[u] = true })
		adj[v] = row
	}
	return adj
}

// EnumerateMaximal calls visit for every maximal clique of g of size ≥
// minSize, using Bron–Kerbosch with pivoting. The slice passed to visit is
// reused between calls; copy it if it must be retained. Enumeration stops
// early if visit returns false.
func EnumerateMaximal(g *graph.Graph, minSize int, visit func(c []int) bool) {
	n := g.N()
	if n == 0 {
		return
	}
	adj := buildAdj(g)
	var r []int
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	bk(adj, r, p, nil, minSize, visit)
}

// bk is Bron–Kerbosch with pivot selection by maximum |P ∩ N(pivot)|.
// Returns false when enumeration should stop.
func bk(adj []map[int]bool, r, p, x []int, minSize int, visit func([]int) bool) bool {
	if len(p) == 0 && len(x) == 0 {
		if len(r) >= minSize {
			return visit(r)
		}
		return true
	}
	if len(r)+len(p) < minSize {
		return true // cannot reach minSize anymore
	}
	// Pick pivot u from P ∪ X maximizing neighbours in P.
	pivot, best := -1, -1
	for _, cand := range [2][]int{p, x} {
		for _, u := range cand {
			cnt := 0
			for _, v := range p {
				if adj[u][v] {
					cnt++
				}
			}
			if cnt > best {
				pivot, best = u, cnt
			}
		}
	}
	// Branch on P \ N(pivot).
	var branch []int
	for _, v := range p {
		if !adj[pivot][v] {
			branch = append(branch, v)
		}
	}
	pSet := make(map[int]bool, len(p))
	for _, v := range p {
		pSet[v] = true
	}
	xSet := make(map[int]bool, len(x))
	for _, v := range x {
		xSet[v] = true
	}
	for _, v := range branch {
		var np, nx []int
		for u := range pSet {
			if adj[v][u] {
				np = append(np, u)
			}
		}
		for u := range xSet {
			if adj[v][u] {
				nx = append(nx, u)
			}
		}
		sort.Ints(np) // determinism
		sort.Ints(nx)
		if !bk(adj, append(r, v), np, nx, minSize, visit) {
			return false
		}
		delete(pSet, v)
		xSet[v] = true
	}
	return true
}

// CountBySize enumerates maximal cliques of size ≥ minSize and returns a
// histogram size → count, the data series of Fig. 3.
func CountBySize(g *graph.Graph, minSize int) map[int]int {
	counts := make(map[int]int)
	EnumerateMaximal(g, minSize, func(c []int) bool {
		counts[len(c)]++
		return true
	})
	return counts
}

package main

import (
	"math"
	"math/rand"
	"sort"

	dcs "github.com/dcslib/dcs"
)

// The generators live here rather than in internal/datagen so that a change
// to the repository's own dataset generators cannot silently change what the
// benchmark measures. They follow the same recipe: a power-law collaboration
// background sampled independently for each era, plus planted groups.

// coauthorPair returns a DBLP-like snapshot pair over n authors. G1 is the
// early era and G2 the recent one; edge weights count joint papers. Emerging
// groups collaborate heavily only in G2, disappearing groups only in G1, and
// the independently sampled backgrounds make most G2 edges absent from G1.
// The planted groups are returned for checking answers.
func coauthorPair(rng *rand.Rand, n int, avgDeg float64) (g1, g2 *dcs.Graph, emerging, disappearing [][]int) {
	deg, light := powerLaw(rng, n, 2.3, avgDeg)
	b1, b2 := dcs.NewBuilder(n), dcs.NewBuilder(n)
	background(rng, b1, deg, avgDeg)
	background(rng, b2, deg, avgDeg)
	shapes := []struct {
		size   int
		lo, hi float64
	}{{4, 30, 46}, {7, 5, 9}, {2, 100, 100}, {20, 2, 4}}
	// Groups are planted on the lighter half of the vertices. On a hub, the
	// heavy pair would put the hub's whole neighborhood above NewSEA's
	// pruning bound, and the affinity cost of a graph would hinge on whether
	// the seed happened to pick one.
	used := make([]bool, n)
	if len(light) < 2*(4+7+2+20) {
		panic("coauthorPair: too few vertices for the planted groups") // a sizing bug
	}
	for _, sh := range shapes {
		em := pickDistinct(rng, light, used, sh.size)
		plant(rng, b2, em, sh.lo, sh.hi)
		emerging = append(emerging, em)
		dis := pickDistinct(rng, light, used, sh.size)
		plant(rng, b1, dis, sh.lo, sh.hi)
		disappearing = append(disappearing, dis)
	}
	return b1.Build(), b2.Build(), emerging, disappearing
}

// powerLaw returns n expected degrees following a power law with the given
// exponent, scaled to an average of avgDeg and capped at n/4, in a seeded
// random vertex order, and the vertices of the lighter half. The degrees are
// the distribution's quantiles rather than random draws, so every seed gets
// the same degree sequence — and about the same solver cost — and only the
// wiring differs.
func powerLaw(rng *rand.Rand, n int, exponent, avgDeg float64) (w []float64, light []int) {
	w = make([]float64, n)
	perm := rng.Perm(n)
	var sum float64
	for i, v := range perm {
		w[v] = math.Min(math.Pow((float64(i)+0.5)/float64(n), -1/(exponent-1)), float64(n)/4)
		sum += w[v]
	}
	for i := range w {
		w[i] *= avgDeg * float64(n) / sum
	}
	return w, perm[n/2:]
}

// background adds n·avgDeg/2 edges whose endpoints are drawn proportionally
// to the expected degrees (a Chung–Lu multigraph; repeats merge by summing).
func background(rng *rand.Rand, b *dcs.Builder, deg []float64, avgDeg float64) {
	cum := make([]float64, len(deg))
	var sum float64
	for i, d := range deg {
		sum += d
		cum[i] = sum
	}
	draw := func() int { return sort.SearchFloat64s(cum, rng.Float64()*sum) }
	for m := int(float64(len(deg)) * avgDeg / 2); m > 0; {
		u, v := draw(), draw()
		if u == v || u >= len(deg) || v >= len(deg) {
			continue
		}
		b.AddEdge(u, v, collabWeight(rng))
		m--
	}
}

// collabWeight is 1 plus a geometric tail: many single papers, a few
// long collaborations.
func collabWeight(rng *rand.Rand) float64 {
	w := 1
	for rng.Float64() < 0.35 && w < 40 {
		w++
	}
	return float64(w)
}

func plant(rng *rand.Rand, b *dcs.Builder, members []int, lo, hi float64) {
	for i := range members {
		for j := i + 1; j < len(members); j++ {
			b.AddEdge(members[i], members[j], lo+rng.Float64()*(hi-lo))
		}
	}
}

// pickDistinct draws k vertices of from not yet used, marks them used and
// returns them sorted.
func pickDistinct(rng *rand.Rand, from []int, used []bool, k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		if v := from[rng.Intn(len(from))]; !used[v] {
			used[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// union returns g1 + g2 edge by edge. Used as G1 of the ratio pair, it makes
// every G2 edge present in G1, so the ratio search is bounded instead of
// taking the unbounded shortcut.
func union(g1, g2 *dcs.Graph) *dcs.Graph {
	b := dcs.NewBuilder(g1.N())
	for _, g := range []*dcs.Graph{g1, g2} {
		g.VisitEdges(func(u, v int, w float64) { b.AddEdge(u, v, w) })
	}
	return b.Build()
}

// reweight returns g with every edge weight scaled by a seeded factor in
// [0.5, 1.5), rounded to hundredths: a churned upload of the same topology.
func reweight(rng *rand.Rand, g *dcs.Graph) *dcs.Graph {
	b := dcs.NewBuilder(g.N())
	g.VisitEdges(func(u, v int, w float64) {
		b.AddEdge(u, v, math.Round(w*(50+100*rng.Float64()))/100)
	})
	return b.Build()
}

// deltaStream produces a watch's tick deltas: each tick swings the weight of
// k random edges of the base network by ±40%, and every 24th tick plants a
// heavy 6-clique that the next tick removes again — the planted burst of
// dcsbench -watch.
type deltaStream struct {
	rng   *rand.Rand
	k     int
	tick  int
	edges []dcs.Edge
	mob   []int
}

func newDeltaStream(rng *rand.Rand, base *dcs.Graph, k int) *deltaStream {
	s := &deltaStream{rng: rng, k: k}
	base.VisitEdges(func(u, v int, w float64) { s.edges = append(s.edges, dcs.Edge{U: u, V: v, W: w}) })
	s.mob = pickDistinct(rng, rng.Perm(base.N()), make([]bool, base.N()), 6)
	return s
}

func (s *deltaStream) next() []dcs.Edge {
	s.tick++
	delta := make([]dcs.Edge, 0, s.k+15)
	for i := 0; i < s.k; i++ {
		e := s.edges[s.rng.Intn(len(s.edges))]
		e.W = math.Round(e.W*(60+80*s.rng.Float64())) / 100
		delta = append(delta, e)
	}
	if s.tick%burstEvery <= 1 && s.tick > 1 {
		var w float64 // the tick after a burst removes it
		if s.tick%burstEvery == 0 {
			w = 40
		}
		for i := range s.mob {
			for j := i + 1; j < len(s.mob); j++ {
				delta = append(delta, dcs.Edge{U: s.mob[i], V: s.mob[j], W: w})
			}
		}
	}
	return delta
}

// burstEvery is the tick period of the planted clique burst.
const burstEvery = 24

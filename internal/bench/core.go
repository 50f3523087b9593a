package bench

import (
	"testing"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
)

// A Case is one core-substrate micro-benchmark: a name and a benchmark body
// whose fixtures are already built.
type Case struct {
	Name string
	Run  func(b *testing.B)
}

// Core returns the core-substrate micro-benchmarks: the graph-layer hot
// paths (difference-graph construction, derived views, W_D(S)), greedy
// peeling, top-k mining, the bounded ratio search and the clique-collection
// pipeline, over the synthetic DBLP-like snapshot pair from
// internal/datagen. It is the one table behind both `go test -bench=Core`
// (BenchmarkCore in the root package) and `dcsbench -json` (the
// BENCH_core.json trajectory). quick shrinks the graphs ~4x (the ratio
// pair stays at n = 250); seed 0 selects the default fixture seed 7.
func Core(quick bool, seed int64) []Case {
	if seed == 0 {
		seed = 7
	}
	n, cliquesN := 2000, 400
	if quick {
		n, cliquesN = 500, 100
	}
	d := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: n})
	gd := graph.Difference(d.G1, d.G2)
	topKSeed := core.DCSGreedy(gd).S
	sub := make([]int, 64)
	for i := range sub {
		sub[i] = i * 3
	}
	dSmall := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: cliquesN})
	gdSmall := graph.Difference(dSmall.G1, dSmall.G2)
	// Bounded ratio pair: G1 overlays every G2 edge, so no edge is G2-only
	// and the full binary search runs (the shape perfbench's ratio class
	// serves).
	dRatio := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: 250})
	ratioG1 := graph.Blend(dRatio.G1, dRatio.G2, 1, 1)

	loop := func(op func()) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
		}
	}
	return []Case{
		// Building GD = G2 − G1 from two snapshots.
		{"DifferenceBuild", loop(func() { _ = graph.Difference(d.G1, d.G2) })},
		// Deriving GD+ from a built difference graph.
		{"PositivePart", loop(func() { _ = gd.PositivePart() })},
		// Stripping a small found subgraph from GD, the per-iteration step
		// of top-k mining.
		{"WithoutVertices", loop(func() { _ = gd.WithoutVertices(topKSeed) })},
		// W_D(S) for a mid-sized subgraph, the metric every result
		// constructor recomputes.
		{"TotalDegreeOf", loop(func() { _ = gd.TotalDegreeOf(sub) })},
		// Algorithm 2 end to end on GD.
		{"DCSGreedy", loop(func() { _ = core.DCSGreedy(gd) })},
		// Ten vertex-disjoint average-degree DCS: the repeated
		// WithoutVertices + re-peeling loop.
		{"TopK10", loop(func() { _ = core.TopKAverageDegree(gd, 10) })},
		// The α-quasi-contrast search on the bounded pair.
		{"RatioBounded", loop(func() { _ = core.MaxRatioContrast(ratioG1, dRatio.G2) })},
		// The full multi-initialization affinity pipeline behind /v1/topics
		// (smaller n: it runs one solver per vertex).
		{"CollectCliques", loop(func() { _ = core.CollectCliques(gdSmall, core.GAOptions{}) })},
	}
}

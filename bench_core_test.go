// Core-substrate benchmarks: the operations the CSR/view refactor targets.
// Unlike bench_test.go (one benchmark per paper table), these isolate the
// graph-layer hot paths — difference-graph construction, derived views,
// greedy peeling, top-k mining and the clique-collection pipeline — over the
// synthetic DBLP-like snapshot pair from internal/datagen.
//
// `dcsbench -json` (cmd/dcsbench/corejson.go) mirrors these fixtures and
// loop bodies for the machine-readable BENCH_*.json trajectory; keep the two
// in sync when changing seeds, sizes, or adding benchmarks.
//
//	go test -bench=Core -benchmem
package dcs_test

import (
	"context"
	"testing"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
)

// coauthorPair returns the CI-scale synthetic co-author snapshots used by all
// core benchmarks (n=2000 keeps a full -benchtime run under a minute).
func coauthorPair(b *testing.B) (*graph.Graph, *graph.Graph) {
	b.Helper()
	d := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 7, N: 2000})
	return d.G1, d.G2
}

// BenchmarkCoreDifferenceBuild — building GD = G2 − G1 from two snapshots.
func BenchmarkCoreDifferenceBuild(b *testing.B) {
	g1, g2 := coauthorPair(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = dcs.Difference(g1, g2)
	}
}

// BenchmarkCorePositivePart — deriving GD+ from a built difference graph.
func BenchmarkCorePositivePart(b *testing.B) {
	g1, g2 := coauthorPair(b)
	gd := dcs.Difference(g1, g2)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gd.PositivePart()
	}
}

// BenchmarkCoreWithoutVertices — stripping a small found subgraph from GD,
// the per-iteration step of top-k mining.
func BenchmarkCoreWithoutVertices(b *testing.B) {
	g1, g2 := coauthorPair(b)
	gd := dcs.Difference(g1, g2)
	S := core.DCSGreedy(gd).S
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gd.WithoutVertices(S)
	}
}

// BenchmarkCoreDCSGreedy — Algorithm 2 end to end on GD.
func BenchmarkCoreDCSGreedy(b *testing.B) {
	g1, g2 := coauthorPair(b)
	gd := dcs.Difference(g1, g2)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.DCSGreedy(gd)
	}
}

// BenchmarkCoreTopK10 — ten vertex-disjoint average-degree DCS, exercising
// the repeated WithoutVertices + re-peeling loop.
func BenchmarkCoreTopK10(b *testing.B) {
	g1, g2 := coauthorPair(b)
	gd := dcs.Difference(g1, g2)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = dcs.TopKAverageDegreeDCSOnParCtx(context.Background(), gd, 10, 1)
	}
}

// BenchmarkCoreTotalDegreeOf — W_D(S) for a mid-sized subgraph, the metric
// recomputed by every result constructor (membership set comes from a pooled
// scratch buffer rather than a per-call map).
func BenchmarkCoreTotalDegreeOf(b *testing.B) {
	g1, g2 := coauthorPair(b)
	gd := dcs.Difference(g1, g2)
	S := make([]int, 64)
	for i := range S {
		S[i] = i * 3
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gd.TotalDegreeOf(S)
	}
}

// BenchmarkCoreRatioBounded — the α-quasi-contrast search on a bounded
// pair: G1 overlays every G2 edge, so no edge is G2-only and the full binary
// search runs (the shape perfbench's ratio class serves).
func BenchmarkCoreRatioBounded(b *testing.B) {
	d := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 7, N: 250})
	g1 := graph.Blend(d.G1, d.G2, 1, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.MaxRatioContrast(g1, d.G2)
	}
}

// BenchmarkCoreCollectCliques — the full multi-initialization affinity
// pipeline behind /v1/topics (smaller n: it runs one solver per vertex).
func BenchmarkCoreCollectCliques(b *testing.B) {
	d := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 7, N: 400})
	gd := dcs.Difference(d.G1, d.G2)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.CollectCliques(gd, core.GAOptions{})
	}
}

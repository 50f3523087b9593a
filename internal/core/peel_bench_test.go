package core

import (
	"testing"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
)

// Solver benchmarks on inputs shaped like the dcsd mine-hot workload: an
// n=2000 co-author difference graph for the average-degree requests, and an
// n=250 pair whose G1 overlays every G2 edge for the bounded ratio search.
// Compare across changes with -benchmem: allocs/op is the per-solve scratch
// reuse, ns/op the peel kernel.

func benchGD(b *testing.B) *graph.Graph {
	b.Helper()
	return datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 2, N: 2000}).EmergingGD()
}

func BenchmarkPeelAvgDeg(b *testing.B) {
	gd := benchGD(b)
	b.ReportAllocs()
	for b.Loop() {
		DCSGreedy(gd)
	}
}

func BenchmarkPeelTopK5(b *testing.B) {
	gd := benchGD(b)
	b.ReportAllocs()
	for b.Loop() {
		TopKAverageDegree(gd, 5)
	}
}

func BenchmarkPeelRatio(b *testing.B) {
	c := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 2, N: 250})
	g1 := graph.Blend(c.G1, c.G2, 1, 1)
	b.ReportAllocs()
	for b.Loop() {
		MaxRatioContrast(g1, c.G2)
	}
}

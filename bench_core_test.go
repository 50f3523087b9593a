// Solver micro-benchmarks: the graph-layer hot paths — difference-graph
// construction, derived views, greedy peeling, top-k mining, the bounded
// ratio search and the clique-collection pipeline — over the synthetic
// DBLP-like snapshot pair from internal/datagen (seed 7). Unlike
// bench_test.go (one benchmark per paper table) these isolate single
// operations. BenchmarkCore times each operation once; BenchmarkPar times
// the parallel solvers at each worker degree, so a degree's speedup is the
// ratio of its line to the deg=1 line. BENCH_micro.txt is the committed
// output of `make bench`, which runs these and evolve's BenchmarkDeltaTick:
//
//	go test -run '^$' -bench '^Benchmark(Core|Par|DeltaTick)$' -benchmem . ./internal/evolve/
//
// Result equality across degrees is asserted by tests, not here:
// internal/partest (DCSGreedy, top-k, ratio at degrees 1/2/8) and
// internal/core/parallel_test.go (CollectCliques).
package dcs_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/dataio"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// microFixtures are the graphs BenchmarkCore and BenchmarkPar share.
type microFixtures struct {
	d       *datagen.Coauthor // n = 2000
	gd      *graph.Graph      // its difference graph
	gdSmall *graph.Graph      // n = 400, for the per-vertex clique pipeline
	// Bounded ratio pairs: G1 overlays every G2 edge, so no edge is G2-only
	// and the full binary search runs (the shape perfbench's ratio class
	// serves).
	ratioG1, ratioG2           *graph.Graph // n = 250
	ratioSmallG1, ratioSmallG2 *graph.Graph // n = 400
}

var micro = sync.OnceValue(func() *microFixtures {
	const seed = 7
	d := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: 2000})
	dSmall := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: 400})
	dRatio := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: 250})
	return &microFixtures{
		d:            d,
		gd:           graph.Difference(d.G1, d.G2),
		gdSmall:      graph.Difference(dSmall.G1, dSmall.G2),
		ratioG1:      graph.Blend(dRatio.G1, dRatio.G2, 1, 1),
		ratioG2:      dRatio.G2,
		ratioSmallG1: graph.Blend(dSmall.G1, dSmall.G2, 1, 1),
		ratioSmallG2: dSmall.G2,
	}
})

func BenchmarkCore(b *testing.B) {
	f := micro()
	topKSeed := core.DCSGreedy(runstate.New(nil), f.gd, 1).S
	sub := make([]int, 64)
	for i := range sub {
		sub[i] = i * 3
	}
	// A copy of GD served from a read-only mapping of a .dcsg v2 file, as
	// dcsd serves a snapshot under -memlimit.
	path := filepath.Join(b.TempDir(), "gd.dcsg")
	if err := dataio.WriteBinaryV2File(path, f.gd); err != nil {
		b.Fatal(err)
	}
	mapped, err := dataio.OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	defer mapped.Close()
	cases := []struct {
		name string
		op   func()
	}{
		// Building GD = G2 − G1 from two snapshots.
		{"DifferenceBuild", func() { graph.Difference(f.d.G1, f.d.G2) }},
		// Stripping a small found subgraph from GD, the per-iteration step
		// of top-k mining.
		{"WithoutVertices", func() { f.gd.WithoutVertices(topKSeed) }},
		// W_D(S) for a mid-sized subgraph, the metric every result
		// constructor recomputes.
		{"TotalDegreeOf", func() { f.gd.TotalDegreeOf(sub) }},
		// Algorithm 2 end to end on GD.
		{"DCSGreedy", func() { core.DCSGreedy(runstate.New(nil), f.gd, 1) }},
		// The same on the mapped copy of GD.
		{"DCSGreedyBacked", func() { core.DCSGreedy(runstate.New(nil), mapped.Graph(), 1) }},
		// Five vertex-disjoint average-degree DCS (perfbench mine-hot's
		// top-5 class): the repeated WithoutVertices + re-peeling loop.
		{"TopK5", func() { core.TopKAverageDegree(runstate.New(nil), f.gd, 5, 1) }},
		// The α-quasi-contrast search on the bounded pair.
		{"RatioBounded", func() { core.MaxRatioContrast(runstate.New(nil), f.ratioG1, f.ratioG2, 1) }},
		// The full multi-initialization affinity pipeline behind /v1/topics
		// (smaller n: it runs one solver per vertex).
		{"CollectCliques", func() { core.CollectCliques(runstate.New(nil), f.gdSmall, core.GAOptions{}) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.op()
			}
		})
	}
}

// parDegrees is the tested ladder 1/2/4/GOMAXPROCS, sorted and deduplicated.
// par.Workers caps a degree at GOMAXPROCS, so a degree above it re-measures
// GOMAXPROCS and the spread between the two lines shows the host's noise.
func parDegrees() []int {
	ds := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	slices.Sort(ds)
	return slices.Compact(ds)
}

func BenchmarkPar(b *testing.B) {
	f := micro()
	ctx := context.Background()
	workloads := []struct {
		name string
		run  func(deg int)
	}{
		{"DCSGreedy", func(deg int) { core.DCSGreedy(runstate.New(ctx), f.gd, deg) }},
		{"TopK5", func(deg int) { dcs.TopKAverageDegreeDCSOnParCtx(ctx, f.gd, 5, deg) }},
		{"Ratio", func(deg int) { dcs.FindMaxRatioContrastParCtx(ctx, f.ratioSmallG1, f.ratioSmallG2, deg) }},
		{"CollectCliques", func(deg int) { core.CollectCliques(runstate.New(nil), f.gdSmall, core.GAOptions{Parallelism: deg}) }},
	}
	for _, wl := range workloads {
		b.Run(wl.name, func(b *testing.B) {
			for _, deg := range parDegrees() {
				b.Run(fmt.Sprintf("deg=%d", deg), func(b *testing.B) {
					for b.Loop() {
						wl.run(deg)
					}
				})
			}
		})
	}
}

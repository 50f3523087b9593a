package evolve

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
)

// churnStream yields per-tick weight churn on k randomly chosen edges of the
// base network: interaction intensities fluctuate while the topology stays
// put, so the difference graph's support (and with it the incremental
// engine's locality) mirrors the real network's. With bursts set, a heavy
// 6-clique on fixed random vertices is planted every 24th tick and removed
// on the next, the anomaly both engines must agree on.
func churnStream(seed int64, base *graph.Graph, k int, bursts bool) func() []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	base.VisitEdges(func(u, v int, w float64) {
		edges = append(edges, graph.Edge{U: u, V: v, W: w})
	})
	var mob []int
	if bursts {
		seen := map[int]bool{}
		for len(mob) < 6 {
			if v := rng.Intn(base.N()); !seen[v] {
				seen[v] = true
				mob = append(mob, v)
			}
		}
	}
	tick := 0
	return func() []graph.Edge {
		tick++
		delta := make([]graph.Edge, 0, k+15)
		for i := 0; i < k; i++ {
			e := edges[rng.Intn(len(edges))]
			e.W *= 0.6 + 0.8*rng.Float64() // ±40% intensity swing
			delta = append(delta, e)
		}
		if bursts && tick%24 <= 1 && tick > 1 {
			var w float64 // remove the burst again by default
			if tick%24 == 0 {
				w = 40 // plant it
			}
			for i := range mob {
				for j := i + 1; j < len(mob); j++ {
					delta = append(delta, graph.Edge{U: mob[i], V: mob[j], W: w})
				}
			}
		}
		return delta
	}
}

// BenchmarkDeltaTick times one steady-state delta tick of a watch over an
// n-vertex coauthor network fed k-edge churn deltas, under the incremental
// engine (the default resync cadence, so its figure is the amortized cost,
// resyncs included) and under a forced-scratch twin (ResyncEvery: 1). The
// incremental engine's speedup on a cell is the ratio of its two lines;
// inc-frac is the share of timed ticks that ran incrementally. Report
// equivalence of the two engines is asserted by
// TestIncrementalMatchesScratchBursts, not here.
//
//	go test -run '^$' -bench '^BenchmarkDeltaTick$' ./internal/evolve/
func BenchmarkDeltaTick(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			base := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 7, N: n}).G2
			for _, k := range []int{4, 32, 256} {
				b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
					b.Run("incremental", func(b *testing.B) { benchDeltaTicks(b, base, k, 0) })
					b.Run("scratch", func(b *testing.B) { benchDeltaTicks(b, base, k, 1) })
				})
			}
		})
	}
}

func benchDeltaTicks(b *testing.B, base *graph.Graph, k, resync int) {
	ctx := context.Background()
	tr, err := New(base.N(), Config{Lambda: 0.3, MinDensity: 5, ResyncEvery: resync})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tr.ObserveCtx(ctx, base); err != nil {
		b.Fatal(err)
	}
	next := churnStream(11, base, k, false)
	for i := 0; i < 4; i++ { // warm up: seed the maintainer and the prior
		if _, err := tr.ObserveDeltaCtx(ctx, next()); err != nil {
			b.Fatal(err)
		}
	}
	before := tr.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.ObserveDeltaCtx(ctx, next()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := tr.Stats()
	inc := st.IncrementalTicks - before.IncrementalTicks
	b.ReportMetric(float64(inc)/float64(inc+st.ScratchTicks-before.ScratchTicks), "inc-frac")
}

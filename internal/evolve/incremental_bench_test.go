package evolve

import (
	"context"
	"math/rand"
	"testing"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
)

// churnStream yields per-tick weight churn on k randomly chosen edges of the
// base network — the same stream shape dcsbench's -watch sweep times.
func churnStream(seed int64, base *graph.Graph, k int) func() []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	base.VisitEdges(func(u, v int, w float64) {
		edges = append(edges, graph.Edge{U: u, V: v, W: w})
	})
	return func() []graph.Edge {
		delta := make([]graph.Edge, 0, k)
		for i := 0; i < k; i++ {
			e := edges[rng.Intn(len(edges))]
			e.W *= 0.6 + 0.8*rng.Float64()
			delta = append(delta, e)
		}
		return delta
	}
}

func benchDeltaTicks(b *testing.B, n, k, resync int) {
	base := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 7, N: n}).G2
	tr, err := New(n, Config{Lambda: 0.3, MinDensity: 5, ResyncEvery: resync})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tr.ObserveCtx(context.Background(), base); err != nil {
		b.Fatal(err)
	}
	next := churnStream(11, base, k)
	for i := 0; i < 4; i++ {
		if _, err := tr.ObserveDeltaCtx(context.Background(), next()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.ObserveDeltaCtx(context.Background(), next()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := tr.Stats()
	b.ReportMetric(float64(st.IncrementalTicks)/float64(st.IncrementalTicks+st.ScratchTicks), "inc-frac")
}

func BenchmarkDeltaTickIncremental(b *testing.B) { benchDeltaTicks(b, 500, 4, 0) }
func BenchmarkDeltaTickScratch(b *testing.B)     { benchDeltaTicks(b, 500, 4, 1) }

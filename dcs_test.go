package dcs

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/egoscan"
	"github.com/dcslib/dcs/internal/runstate"
)

// fig1 builds the paper's Fig. 1 example pair (vi ↦ i−1).
func fig1() (*Graph, *Graph) {
	b1 := NewBuilder(5)
	b1.AddEdge(0, 2, 2)
	b1.AddEdge(0, 3, 2)
	b1.AddEdge(2, 3, 1)
	b1.AddEdge(2, 4, 3)
	b1.AddEdge(1, 4, 2)
	b2 := NewBuilder(5)
	b2.AddEdge(0, 1, 1)
	b2.AddEdge(0, 2, 5)
	b2.AddEdge(0, 3, 6)
	b2.AddEdge(2, 3, 4)
	b2.AddEdge(2, 4, 2)
	b2.AddEdge(1, 4, 3)
	return b1.Build(), b2.Build()
}

func TestPublicAverageDegree(t *testing.T) {
	g1, g2 := fig1()
	res := FindAverageDegreeDCSOnParCtx(context.Background(), Difference(g1, g2), 1)
	if math.Abs(res.Density-20.0/3) > 1e-9 {
		t.Fatalf("density = %v, want 20/3", res.Density)
	}
	if len(res.S) != 3 {
		t.Fatalf("S = %v, want the triangle {0,2,3}", res.S)
	}
	// Disappearing direction: best is the (v3,v5) edge with density 1.
	dis := FindAverageDegreeDCSOnParCtx(context.Background(), Difference(g2, g1), 1)
	if math.Abs(dis.Density-1) > 1e-9 {
		t.Fatalf("disappearing density = %v, want 1", dis.Density)
	}
}

func TestPublicGraphAffinity(t *testing.T) {
	g1, g2 := fig1()
	res := FindGraphAffinityDCSOnCtx(context.Background(), Difference(g1, g2), nil)
	if math.Abs(res.Affinity-2.25) > 1e-6 {
		t.Fatalf("affinity = %v, want 2.25", res.Affinity)
	}
	if !res.PositiveClique {
		t.Fatal("affinity DCS must be a positive clique")
	}
	sum := 0.0
	for _, v := range res.S {
		sum += res.X.Get(v)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("embedding mass = %v, want 1", sum)
	}
}

func TestPublicDifferenceAlpha(t *testing.T) {
	g1, g2 := fig1()
	gd := DifferenceAlpha(g1, g2, 2)
	if w := gd.Weight(0, 2); math.Abs(w-1) > 1e-9 {
		t.Fatalf("alpha-difference weight = %v, want 1", w)
	}
	res := FindAverageDegreeDCSOnParCtx(context.Background(), gd, 1)
	if res.Density <= 0 {
		t.Fatalf("alpha contrast should still be positive, got %v", res.Density)
	}
}

func TestPublicTopContrastCliques(t *testing.T) {
	g1, g2 := fig1()
	cs, _ := TopContrastCliquesOnCtx(context.Background(), Difference(g1, g2), nil)
	if len(cs) == 0 {
		t.Fatal("expected at least one contrast clique")
	}
	if math.Abs(cs[0].Affinity-2.25) > 1e-6 {
		t.Fatalf("top clique affinity = %v, want 2.25", cs[0].Affinity)
	}
}

func TestPublicMaxTotalWeight(t *testing.T) {
	g1, g2 := fig1()
	gd := Difference(g1, g2)
	res := FindMaxTotalWeightSubgraphOnCtx(context.Background(), gd)
	// Optimum: all positive edges {v1,v2,v3,v4,v5} minus the −1 edge cost…
	// best is {0,1,2,3} with W = 2(1+3+4+3) = 22 or all 5 with
	// W = 2(1+3+4+3−1+1) = 22; either way 22.
	if math.Abs(res.TotalWeight-22) > 1e-9 {
		t.Fatalf("total weight = %v (S=%v), want 22", res.TotalWeight, res.S)
	}
	ad := FindAverageDegreeDCSOnParCtx(context.Background(), gd, 1)
	if res.TotalWeight < ad.TotalWeight {
		t.Fatal("total-weight objective must dominate the density solution's weight")
	}
}

func TestPublicStats(t *testing.T) {
	g1, g2 := fig1()
	st := Difference(g1, g2).ComputeStats()
	if st.N != 5 || st.MPos != 5 || st.MNeg != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPublicTopK(t *testing.T) {
	// Two disjoint growing cliques.
	b1 := NewBuilder(8)
	b2 := NewBuilder(8)
	for u := 0; u < 3; u++ {
		for v := u + 1; v < 3; v++ {
			b2.AddEdge(u, v, 5)
		}
	}
	for u := 4; u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			b2.AddEdge(u, v, 2)
		}
	}
	gd := Difference(b1.Build(), b2.Build())
	ads, _ := TopKAverageDegreeDCSOnParCtx(context.Background(), gd, 5, 1)
	if len(ads) != 2 {
		t.Fatalf("want 2 disjoint AD contrasts, got %d", len(ads))
	}
	gas, _ := TopKGraphAffinityDCSOnCtx(context.Background(), gd, 5, nil)
	if len(gas) != 2 {
		t.Fatalf("want 2 disjoint GA contrasts, got %d", len(gas))
	}
	if gas[0].Affinity < gas[1].Affinity {
		t.Error("strongest clique must come first")
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: -1}})
	if g.M() != 2 || g.Weight(1, 2) != -1 {
		t.Fatal("FromEdges wrong")
	}
}

// TestSolverWiring checks that every public solver passes its context and
// worker count through to the engine: with a live context each answer is
// the internal solver's at degree 1 on a never-cancelled State, at every
// degree, and with a pre-cancelled one each reports the interruption.
func TestSolverWiring(t *testing.T) {
	// Every G2 edge overlays a G1 edge (some grew, some shrank), so the
	// difference graph is signed and the ratio search really binary-searches
	// and so reaches a cancellation checkpoint.
	rng := rand.New(rand.NewSource(11))
	const n = 60
	b1, b2 := NewBuilder(n), NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.2 {
				w := 1 + rng.Float64()
				b1.AddEdge(u, v, w)
				b2.AddEdge(u, v, w*(0.5+rng.Float64()))
			}
		}
	}
	g1, g2 := b1.Build(), b2.Build()
	gd := Difference(g1, g2)
	const k = 3

	cases := []struct {
		name string
		// run returns the answer and whether it reports an interruption.
		run  func(ctx context.Context, workers int) (any, bool)
		want any
	}{
		{"FindAverageDegreeDCSOnParCtx", func(ctx context.Context, workers int) (any, bool) {
			res := FindAverageDegreeDCSOnParCtx(ctx, gd, workers)
			return res, res.Interrupted
		}, core.DCSGreedy(runstate.New(nil), gd, 1)},
		{"TopKAverageDegreeDCSOnParCtx", func(ctx context.Context, workers int) (any, bool) {
			return TopKAverageDegreeDCSOnParCtx(ctx, gd, k, workers)
		}, solved(core.TopKAverageDegree(runstate.New(nil), gd, k, 1))},
		{"FindGraphAffinityDCSOnCtx", func(ctx context.Context, workers int) (any, bool) {
			res := FindGraphAffinityDCSOnCtx(ctx, gd, &Options{Parallelism: workers})
			return res, res.Interrupted
		}, core.NewSEA(runstate.New(nil), gd)},
		{"TopKGraphAffinityDCSOnCtx", func(ctx context.Context, workers int) (any, bool) {
			return TopKGraphAffinityDCSOnCtx(ctx, gd, k, &Options{Parallelism: workers})
		}, solved(core.TopKGraphAffinity(runstate.New(nil), gd, k, core.GAOptions{}))},
		{"TopContrastCliquesOnCtx", func(ctx context.Context, workers int) (any, bool) {
			return TopContrastCliquesOnCtx(ctx, gd, &Options{Parallelism: workers})
		}, solved(core.CollectCliques(runstate.New(nil), gd, core.GAOptions{}))},
		{"FindMaxRatioContrastParCtx", func(ctx context.Context, workers int) (any, bool) {
			res := FindMaxRatioContrastParCtx(ctx, g1, g2, workers)
			return res, res.Interrupted
		}, core.MaxRatioContrast(runstate.New(nil), g1, g2, 1)},
		{"FindMaxTotalWeightSubgraphOnCtx", func(ctx context.Context, _ int) (any, bool) {
			res := FindMaxTotalWeightSubgraphOnCtx(ctx, gd)
			return res, res.Interrupted
		}, egoscan.Scan(runstate.New(nil), gd)},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			got, interrupted := tc.run(context.Background(), workers)
			if interrupted {
				t.Errorf("%s workers=%d: uncancelled solve reports an interruption", tc.name, workers)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s workers=%d:\n got %+v\nwant %+v", tc.name, workers, got, tc.want)
			}
			if _, interrupted := tc.run(cancelled, workers); !interrupted {
				t.Errorf("%s workers=%d: pre-cancelled solve does not report the interruption", tc.name, workers)
			}
		}
	}
}

// solved drops the interrupted flag of a solve known to run uncancelled.
func solved[T any](res T, _ bool) T { return res }

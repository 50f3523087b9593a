package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/clique"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

// figure1GD builds the difference graph of Fig. 1 in the paper:
// (v1,v2)=1, (v1,v3)=3, (v1,v4)=4, (v3,v4)=3, (v3,v5)=−1, (v2,v5)=1
// with vi ↦ i−1.
func figure1GD() *graph.Graph {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 3)
	b.AddEdge(0, 3, 4)
	b.AddEdge(2, 3, 3)
	b.AddEdge(2, 4, -1)
	b.AddEdge(1, 4, 1)
	return b.Build()
}

func randomSignedGraph(rng *rand.Rand, n int, p float64, wmax int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				w := rng.Intn(2*wmax+1) - wmax
				if w != 0 {
					b.AddEdge(u, v, float64(w))
				}
			}
		}
	}
	return b.Build()
}

func TestDCSGreedyFigure1(t *testing.T) {
	gd := figure1GD()
	res := DCSGreedy(runstate.New(nil), gd, 1)
	// Optimum: S = {v1,v3,v4} with W = 2(3+4+3) = 20, ρ = 20/3.
	bf := BruteForceAD(gd)
	if !almostEqual(bf.Density, 20.0/3) {
		t.Fatalf("brute force optimum = %v, want 20/3", bf.Density)
	}
	if !almostEqual(res.Density, 20.0/3) {
		t.Fatalf("DCSGreedy density = %v S=%v, want optimum 20/3 on {0,2,3}", res.Density, res.S)
	}
	if len(res.S) != 3 || res.S[0] != 0 || res.S[1] != 2 || res.S[2] != 3 {
		t.Fatalf("S = %v, want [0 2 3]", res.S)
	}
	if !res.Connected {
		t.Error("result must be connected")
	}
	if !res.PositiveClique {
		t.Error("{v1,v3,v4} is a positive clique")
	}
	if res.Ratio < 1 {
		t.Errorf("data-dependent ratio %v must be ≥ 1", res.Ratio)
	}
	if !almostEqual(res.TotalWeight, 20) || !almostEqual(res.EdgeDensity, 20.0/9) {
		t.Errorf("W=%v dens=%v, want 20 and 20/9", res.TotalWeight, res.EdgeDensity)
	}
}

func TestDCSGreedyNoPositiveEdges(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, -2)
	b.AddEdge(2, 3, -1)
	res := DCSGreedy(runstate.New(nil), b.Build(), 1)
	if len(res.S) != 1 || res.Density != 0 {
		t.Fatalf("all-negative GD must yield a single vertex with density 0, got %+v", res)
	}
	// Empty graph.
	empty := DCSGreedy(runstate.New(nil), graph.NewBuilder(0).Build(), 1)
	if len(empty.S) != 0 {
		t.Fatalf("empty graph: %+v", empty)
	}
	// Edgeless graph.
	edgeless := DCSGreedy(runstate.New(nil), graph.NewBuilder(3).Build(), 1)
	if len(edgeless.S) != 1 || edgeless.Density != 0 {
		t.Fatalf("edgeless graph: %+v", edgeless)
	}
}

func TestDCSGreedySingleHeavyEdge(t *testing.T) {
	// A single heavy positive edge in a sea of negatives: the max-edge
	// candidate guarantees DCSGreedy finds it.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 10)
	b.AddEdge(1, 2, -8)
	b.AddEdge(2, 3, -8)
	b.AddEdge(3, 4, -8)
	b.AddEdge(4, 5, -8)
	res := DCSGreedy(runstate.New(nil), b.Build(), 1)
	if !almostEqual(res.Density, 10) {
		t.Fatalf("density = %v S=%v, want 10 on the heavy edge", res.Density, res.S)
	}
}

// NP-hardness reduction of Theorem 1: from a max-clique instance G build
// G1 = complement with weight |E|+1, G2 = G with weight 1; the DCSAD optimum
// on GD = G2−G1 is ω(G)−1.
func TestTheorem1Reduction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(5)
		gb := graph.NewBuilder(n)
		cnt := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					gb.AddEdge(u, v, 1)
					cnt++
				}
			}
		}
		g := gb.Build()
		omega := clique.Number(g)

		b1 := graph.NewBuilder(n)
		b2 := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if g.HasEdge(u, v) {
					b2.AddEdge(u, v, 1)
				} else {
					b1.AddEdge(u, v, float64(cnt+1))
				}
			}
		}
		gd := graph.Difference(b1.Build(), b2.Build())
		bf := BruteForceAD(gd)
		if !almostEqual(bf.Density, float64(omega-1)) {
			t.Fatalf("reduction optimum = %v, want omega-1 = %d", bf.Density, omega-1)
		}
	}
}

// Properties of DCSGreedy on random signed graphs.
func TestDCSGreedyProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		gd := randomSignedGraph(rng, n, 0.4, 5)
		res := DCSGreedy(runstate.New(nil), gd, 1)
		if len(res.S) == 0 {
			return false
		}
		// (a) Result is connected (Property 1 refinement).
		if !gd.IsConnected(res.S) {
			return false
		}
		// (b) Density at least the best single edge (the 1/(n−1)-optimal
		// candidate of Section IV-B).
		if e, ok := gd.MaxEdge(); ok && e.W > 0 && res.Density < e.W-1e-9 {
			return false
		}
		// (c) Reported density is consistent.
		if !almostEqual(res.Density, gd.AverageDegreeOf(res.S)) {
			return false
		}
		// (d) Data-dependent ratio is valid: β·ρ_D(S) ≥ optimum (Theorem 2).
		bf := BruteForceAD(gd)
		if res.Ratio > 0 && res.Ratio*res.Density+1e-6 < bf.Density {
			return false
		}
		// (e) Never better than the optimum.
		return res.Density <= bf.Density+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The single-candidate variants are never better than DCSGreedy, which takes
// the max over them.
func TestDCSGreedyDominatesSingleCandidates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		gd := randomSignedGraph(rng, n, 0.35, 4)
		full := DCSGreedy(runstate.New(nil), gd, 1)
		gdOnly := GreedyGDOnly(runstate.New(nil), gd)
		gdpOnly := GreedyGDPlusOnly(runstate.New(nil), gd)
		return full.Density+1e-9 >= gdOnly.Density && full.Density+1e-9 >= gdpOnly.Density
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// On an all-positive difference graph DCSGreedy inherits Charikar's
// 2-approximation.
func TestDCSGreedyTwoApproxOnPositive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					b.AddEdge(u, v, float64(1+rng.Intn(5)))
				}
			}
		}
		gd := b.Build()
		if gd.M() == 0 {
			return true
		}
		res := DCSGreedy(runstate.New(nil), gd, 1)
		bf := BruteForceAD(gd)
		return 2*res.Density+1e-9 >= bf.Density
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDisappearingViaNegate(t *testing.T) {
	gd := figure1GD()
	neg := gd.Negate()
	res := DCSGreedy(runstate.New(nil), neg, 1)
	// In −GD the only positive edge is (v3,v5) with weight 1 → that edge is
	// the optimum (density 1).
	bf := BruteForceAD(neg)
	if !almostEqual(res.Density, bf.Density) {
		t.Fatalf("disappearing DCS density = %v, optimum %v", res.Density, bf.Density)
	}
	if !almostEqual(res.Density, 1) {
		t.Fatalf("density = %v, want 1 on edge (v3,v5)", res.Density)
	}
}

package densest

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

func randomPositiveGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v, 1+rng.Float64()*4)
			}
		}
	}
	return b.Build()
}

func TestGreedyOnCliquePlusTail(t *testing.T) {
	// K4 (unit weights) with a pendant path: densest subgraph is the K4 with
	// ρ = 3 (paper convention: k-1).
	b := graph.NewBuilder(7)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v, 1)
		}
	}
	b.AddEdge(3, 4, 0.1)
	b.AddEdge(4, 5, 0.1)
	b.AddEdge(5, 6, 0.1)
	g := b.Build()
	res := Greedy(runstate.New(nil), g)
	if !almostEqual(res.Density, 3) {
		t.Fatalf("greedy density = %v, want 3", res.Density)
	}
	if len(res.S) != 4 {
		t.Fatalf("greedy S = %v, want the K4", res.S)
	}
}

func TestGreedyEmptyAndEdgeless(t *testing.T) {
	if res := Greedy(runstate.New(nil), graph.NewBuilder(0).Build()); len(res.S) != 0 {
		t.Errorf("empty graph: %+v", res)
	}
	res := Greedy(runstate.New(nil), graph.NewBuilder(3).Build())
	if len(res.S) != 1 || res.Density != 0 {
		t.Errorf("edgeless graph: %+v, want single vertex density 0", res)
	}
}

func TestGreedyNegativeWeights(t *testing.T) {
	// With one positive and many negative edges, greedy should peel away the
	// negative side and find the positive pair.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, -3)
	b.AddEdge(2, 3, -3)
	b.AddEdge(3, 4, -3)
	res := Greedy(runstate.New(nil), b.Build())
	if !almostEqual(res.Density, 5) { // W({0,1}) = 10, ρ = 5
		t.Fatalf("density = %v S=%v, want 5 on {0,1}", res.Density, res.S)
	}
	sort.Ints(res.S)
	if len(res.S) != 2 || res.S[0] != 0 || res.S[1] != 1 {
		t.Fatalf("S = %v, want [0 1]", res.S)
	}
}

func TestExactOnKnownGraphs(t *testing.T) {
	// K4 + tail as above: exact density is 3.
	b := graph.NewBuilder(7)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v, 1)
		}
	}
	b.AddEdge(3, 4, 0.1)
	b.AddEdge(4, 5, 0.1)
	b.AddEdge(5, 6, 0.1)
	res := Exact(b.Build())
	if !almostEqual(res.Density, 3) {
		t.Fatalf("exact density = %v, want 3", res.Density)
	}

	// Two cliques of different weight: K3 with weight 10 beats K5 with weight 1.
	b2 := graph.NewBuilder(8)
	for u := 0; u < 3; u++ {
		for v := u + 1; v < 3; v++ {
			b2.AddEdge(u, v, 10)
		}
	}
	for u := 3; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			b2.AddEdge(u, v, 1)
		}
	}
	res2 := Exact(b2.Build())
	if !almostEqual(res2.Density, 20) { // W = 2·30, |S|=3
		t.Fatalf("exact density = %v S=%v, want 20 on the heavy K3", res2.Density, res2.S)
	}
}

func TestExactPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exact must reject negative weights")
		}
	}()
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, -1)
	Exact(b.Build())
}

// Property: Exact matches brute force on random positive-weight graphs.
func TestExactMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		g := randomPositiveGraph(rng, n, 0.5)
		ex := Exact(g)
		bf := BruteForce(g)
		return almostEqual(ex.Density, bf.Density)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Charikar's greedy is a 2-approximation on positive-weight graphs
// (Theorem behind the data-dependent ratio of DCSGreedy).
func TestGreedyTwoApproxProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := randomPositiveGraph(rng, n, 0.4)
		gr := Greedy(runstate.New(nil), g)
		bf := BruteForce(g)
		// 2·ρ_greedy ≥ ρ_opt.
		return 2*gr.Density+1e-9 >= bf.Density
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy's reported density matches a from-scratch recomputation on
// the returned set (internal bookkeeping consistency), even with negative
// weights.
func TestGreedyDensityConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					b.AddEdge(u, v, float64(rng.Intn(11)-5))
				}
			}
		}
		g := b.Build()
		res := Greedy(runstate.New(nil), g)
		if len(res.S) == 0 {
			return n == 0
		}
		return almostEqual(res.Density, g.AverageDegreeOf(res.S))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestExactLargerRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomPositiveGraph(rng, 60, 0.1)
	ex := Exact(g)
	gr := Greedy(runstate.New(nil), g)
	if gr.Density > ex.Density+1e-6 {
		t.Fatalf("greedy (%v) beat exact (%v)", gr.Density, ex.Density)
	}
	if 2*gr.Density+1e-6 < ex.Density {
		t.Fatalf("greedy broke the 2-approximation: %v vs %v", gr.Density, ex.Density)
	}
	if !almostEqual(ex.Density, g.AverageDegreeOf(ex.S)) {
		t.Fatal("exact density inconsistent with its own set")
	}
}

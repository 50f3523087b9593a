package oqc

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

func TestLocalSearchFindsPlantedClique(t *testing.T) {
	// Unit K6 plus a sparse tail: with α = 0.9 the K6 has surplus
	// 15 − 0.9·15 = 1.5 and any tail extension hurts.
	b := graph.NewBuilder(12)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			b.AddEdge(u, v, 1)
		}
	}
	b.AddEdge(5, 6, 1)
	b.AddEdge(6, 7, 1)
	b.AddEdge(8, 9, 1)
	g := b.Build()
	res := Best(runstate.New(nil), g, 0.9)
	if len(res.S) != 6 {
		t.Fatalf("S = %v, want the planted K6", res.S)
	}
	for i, v := range res.S {
		if v != i {
			t.Fatalf("S = %v, want [0..5]", res.S)
		}
	}
	if math.Abs(res.Surplus-1.5) > 1e-9 {
		t.Fatalf("surplus = %v, want 1.5", res.Surplus)
	}
	if math.Abs(res.Density-1) > 1e-9 {
		t.Fatalf("quasi-clique density = %v, want 1", res.Density)
	}
}

func TestAlphaControlsSize(t *testing.T) {
	// A dense core with a fringe: small α admits the fringe, large α trims to
	// the core.
	rng := rand.New(rand.NewSource(4))
	b := graph.NewBuilder(30)
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			b.AddEdge(u, v, 1)
		}
	}
	for k := 0; k < 40; k++ {
		u, v := rng.Intn(30), rng.Intn(30)
		if u != v {
			b.AddEdge(u, v, 1)
		}
	}
	g := b.Build()
	loose := Best(runstate.New(nil), g, 0.1)
	tight := Best(runstate.New(nil), g, 0.95)
	if len(loose.S) <= len(tight.S) {
		t.Fatalf("α=0.1 gave %d vertices, α=0.95 gave %d — want loose > tight",
			len(loose.S), len(tight.S))
	}
}

// Property: every move of local search increased the surplus, so the final
// surplus is at least the seed's (0 for a singleton) and the reported value
// matches a recomputation.
func TestLocalSearchInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		b := graph.NewBuilder(n)
		for k := 0; k < 3*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, float64(rng.Intn(7)-2))
			}
		}
		g := b.Build()
		alpha := rng.Float64() * 1.5
		s := rng.Intn(n)
		res := LocalSearch(runstate.New(nil), g, alpha, s)
		if len(res.S) == 0 {
			return false
		}
		if res.Surplus < -1e-9 { // singleton has surplus 0
			return false
		}
		return math.Abs(res.Surplus-Surplus(g, alpha, res.S)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOnSignedDifferenceGraph(t *testing.T) {
	// OQC runs directly on signed graphs: a positive planted clique among
	// negative edges is found with surplus > 0.
	b := graph.NewBuilder(10)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v, 2)
		}
	}
	b.AddEdge(4, 5, -3)
	b.AddEdge(5, 6, -3)
	g := b.Build()
	res := Best(runstate.New(nil), g, 0.5)
	if len(res.S) != 4 || res.Surplus <= 0 {
		t.Fatalf("signed OQC failed: %+v", res)
	}
}

func TestBestEmptyGraph(t *testing.T) {
	if res := Best(runstate.New(nil), graph.NewBuilder(0).Build(), 0.5); len(res.S) != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
}

func TestLocalSearchRSCancelled(t *testing.T) {
	// A pre-cancelled State stops the climb before the first move: the result
	// is the seed alone, which is always a valid (if trivial) quasi-clique.
	g := graph.Complete(6, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := LocalSearch(runstate.New(ctx), g, 0.9, 2)
	if len(res.S) != 1 || res.S[0] != 2 {
		t.Fatalf("cancelled LocalSearch returned S = %v, want just the seed [2]", res.S)
	}

	// A live State reproduces the uncancelled search exactly.
	want := LocalSearch(runstate.New(nil), g, 0.9, 2)
	got := LocalSearch(runstate.New(context.Background()), g, 0.9, 2)
	if len(got.S) != len(want.S) {
		t.Fatalf("live LocalSearch S = %v, want %v", got.S, want.S)
	}
	for i := range got.S {
		if got.S[i] != want.S[i] {
			t.Fatalf("live LocalSearch S = %v, want %v", got.S, want.S)
		}
	}
}

func TestBestRSCancelled(t *testing.T) {
	// With no seed finished, Best hands back the documented sentinel
	// instead of hanging or fabricating a set.
	g := graph.Complete(6, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Best(runstate.New(ctx), g, 0.9)
	if len(res.S) != 0 {
		t.Fatalf("cancelled Best returned S = %v, want no set", res.S)
	}
	if res.Surplus > -1e299 {
		t.Fatalf("cancelled Best surplus = %v, want the -1e300 sentinel", res.Surplus)
	}
}

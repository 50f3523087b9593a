package densest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// Property: the segment-tree and heap implementations of greedy peeling are
// exactly equivalent (same tie-breaking, same result set). Even seeds peel a
// WithoutVertices view, whose masked vertices keep their edges in the shared
// rows.
func TestGreedySegTreeMatchesHeap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for k := 0; k < 3*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, float64(rng.Intn(11)-4))
			}
		}
		g := b.Build()
		if seed%2 == 0 {
			var drop []int
			for v := 0; v < n; v++ {
				if rng.Intn(3) == 0 {
					drop = append(drop, v)
				}
			}
			g = g.WithoutVertices(drop)
		}
		a := Greedy(runstate.New(nil), g)
		s := GreedySegTree(g)
		if a.Density != s.Density || len(a.S) != len(s.S) {
			return false
		}
		for i := range a.S {
			if a.S[i] != s.S[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedySegTreeEmpty(t *testing.T) {
	if res := GreedySegTree(graph.NewBuilder(0).Build()); len(res.S) != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
}

// Ablation: heap-based vs segment-tree-based peeling on a mid-size graph.
func BenchmarkGreedyStructures(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 5000
	gb := graph.NewBuilder(n)
	for k := 0; k < 8*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			gb.AddEdge(u, v, rng.Float64()*4-1)
		}
	}
	g := gb.Build()
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Greedy(runstate.New(nil), g)
		}
	})
	b.Run("segtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GreedySegTree(g)
		}
	})
}

package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

func TestTopKAverageDegreeTwoPlantedGroups(t *testing.T) {
	// Two disjoint positive cliques of different strength in a negative sea:
	// top-2 must recover both, strongest first.
	b := graph.NewBuilder(12)
	for u := 0; u < 4; u++ { // heavy K4 on 0..3, weight 10
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v, 10)
		}
	}
	for u := 4; u < 8; u++ { // lighter K4 on 4..7, weight 3
		for v := u + 1; v < 8; v++ {
			b.AddEdge(u, v, 3)
		}
	}
	b.AddEdge(8, 9, -5)
	b.AddEdge(10, 11, -5)
	b.AddEdge(3, 4, -1) // weak bridge between the groups
	gd := b.Build()

	res, _ := TopKAverageDegree(runstate.New(nil), gd, 5, 1)
	if len(res) != 2 {
		t.Fatalf("got %d subgraphs, want 2", len(res))
	}
	if !almostEqual(res[0].Density, 30) { // K4 weight 10: ρ = 3·10
		t.Errorf("first density = %v, want 30", res[0].Density)
	}
	if !almostEqual(res[1].Density, 9) { // K4 weight 3: ρ = 3·3
		t.Errorf("second density = %v, want 9", res[1].Density)
	}
	seen := map[int]bool{}
	for _, r := range res {
		for _, v := range r.S {
			if seen[v] {
				t.Fatal("results must be vertex-disjoint")
			}
			seen[v] = true
		}
	}
}

// Properties: disjointness, non-increasing density, consistency with the
// original graph, and the first result equals DCSGreedy's.
func TestTopKAverageDegreeProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(15)
		gd := randomSignedGraph(rng, n, 0.4, 5)
		res, _ := TopKAverageDegree(runstate.New(nil), gd, 4, 1)
		first := DCSGreedy(runstate.New(nil), gd, 1)
		if len(res) > 0 {
			if !almostEqual(res[0].Density, first.Density) {
				return false
			}
		} else if first.Density > 0 {
			return false
		}
		seen := map[int]bool{}
		for _, r := range res {
			if r.Density <= 0 {
				return false
			}
			for _, v := range r.S {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
			if !almostEqual(r.Density, gd.AverageDegreeOf(r.S)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKAverageDegreeAllNegative(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, -1)
	if res, _ := TopKAverageDegree(runstate.New(nil), b.Build(), 3, 1); len(res) != 0 {
		t.Fatalf("all-negative graph must yield no contrast subgraphs, got %d", len(res))
	}
}

func TestTopKGraphAffinityDisjoint(t *testing.T) {
	// Two overlapping triangles: {0,1,2} strong, {2,3,4} weaker. Disjoint
	// top-k takes the strong one, then must skip anything touching vertex 2.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 6)
	b.AddEdge(1, 2, 6)
	b.AddEdge(0, 2, 6)
	b.AddEdge(2, 3, 4)
	b.AddEdge(3, 4, 4)
	b.AddEdge(2, 4, 4)
	b.AddEdge(3, 5, 2) // fallback pair disjoint from {0,1,2}
	gd := b.Build()
	res, _ := TopKGraphAffinity(runstate.New(nil), gd, 3, GAOptions{})
	if len(res) == 0 {
		t.Fatal("no cliques found")
	}
	if !almostEqual(res[0].Affinity, 4) { // triangle weight 6: f = (2/3)·6
		t.Errorf("first affinity = %v, want 4", res[0].Affinity)
	}
	seen := map[int]bool{}
	for _, c := range res {
		for _, v := range c.S {
			if seen[v] {
				t.Fatalf("overlapping cliques returned: %v", res)
			}
			seen[v] = true
		}
	}
}

func TestTopKAverageDegreeRecoverIterationCount(t *testing.T) {
	// k limits the output length even when more positive structure remains.
	b := graph.NewBuilder(9)
	for g := 0; g < 3; g++ {
		base := 3 * g
		b.AddEdge(base, base+1, 2)
		b.AddEdge(base+1, base+2, 2)
		b.AddEdge(base, base+2, 2)
	}
	gd := b.Build()
	if res, _ := TopKAverageDegree(runstate.New(nil), gd, 2, 1); len(res) != 2 {
		t.Fatalf("k=2 must cap output, got %d", len(res))
	}
	if res, _ := TopKAverageDegree(runstate.New(nil), gd, 10, 1); len(res) != 3 {
		t.Fatalf("expected all 3 triangles, got %d", len(res))
	}
}

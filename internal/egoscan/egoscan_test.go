package egoscan

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

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

// bruteMaxWeight finds max_S W_D(S) exactly for n ≤ 20.
func bruteMaxWeight(gd *graph.Graph) float64 {
	n := gd.N()
	best := 0.0
	for mask := 1; mask < 1<<uint(n); mask++ {
		var S []int
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				S = append(S, v)
			}
		}
		if w := gd.TotalDegreeOf(S); w > best {
			best = w
		}
	}
	return best
}

func TestScanFindsPositiveCluster(t *testing.T) {
	// Positive K4 (weight 2) plus negative surroundings: the optimum total
	// weight is the K4's W = 2·6·2 = 24.
	b := graph.NewBuilder(8)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v, 2)
		}
	}
	b.AddEdge(3, 4, -5)
	b.AddEdge(4, 5, -5)
	b.AddEdge(5, 6, 1)
	b.AddEdge(6, 7, -2)
	gd := b.Build()
	res := Scan(runstate.New(nil), gd)
	if math.Abs(res.TotalWeight-24) > 1e-9 {
		t.Fatalf("W = %v S=%v, want 24 on the K4", res.TotalWeight, res.S)
	}
}

func TestScanAllNegative(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, -1)
	b.AddEdge(2, 3, -2)
	res := Scan(runstate.New(nil), b.Build())
	if res.TotalWeight != 0 || len(res.S) != 1 {
		t.Fatalf("all-negative scan: %+v, want single vertex W=0", res)
	}
}

func TestScanEmpty(t *testing.T) {
	res := Scan(runstate.New(nil), graph.NewBuilder(0).Build())
	if len(res.S) != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
}

// Property: the result's reported metrics are self-consistent and the set's
// total weight never exceeds the exact optimum.
func TestScanBoundedByBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		gd := randomSignedGraph(rng, n, 0.5, 4)
		res := Scan(runstate.New(nil), gd)
		if len(res.S) == 0 {
			return false
		}
		opt := bruteMaxWeight(gd)
		if res.TotalWeight > opt+1e-9 {
			return false
		}
		return math.Abs(res.TotalWeight-gd.TotalDegreeOf(res.S)) < 1e-9 &&
			math.Abs(res.Density-gd.AverageDegreeOf(res.S)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// On dense positive graphs EgoScan grabs (nearly) everything — the "bigger
// subgraphs than DCS" behaviour of Table VIII.
func TestScanPrefersLargeSets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(30)
	for u := 0; u < 30; u++ {
		for v := u + 1; v < 30; v++ {
			if rng.Float64() < 0.3 {
				b.AddEdge(u, v, 1)
			}
		}
	}
	gd := b.Build()
	res := Scan(runstate.New(nil), gd)
	// Adding any positive-degree vertex helps total weight, so the result
	// should cover most of the graph's positive component.
	if len(res.S) < 20 {
		t.Fatalf("expected a large subgraph, got |S| = %d", len(res.S))
	}
}

func TestGrowPruneMonotone(t *testing.T) {
	// Each grow/prune round must not decrease W_D(S).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		gd := randomSignedGraph(rng, n, 0.5, 3)
		seed2 := rng.Intn(n)
		S := growPrune(gd, seed2, runstate.New(nil))
		if len(S) == 0 {
			return false
		}
		// The grown set's weight must at least match the seed ego-net start.
		var ego []int
		ego = append(ego, seed2)
		for _, nb := range gd.Neighbors(seed2) {
			if nb.W > 0 {
				ego = append(ego, nb.To)
			}
		}
		return gd.TotalDegreeOf(S) >= gd.TotalDegreeOf(ego)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestScanDeterministic pins the grow step's float summation order. Vertex
// 4's gain against {0,1,2,3} is 0.3 + 0.4 − 0.7: summed in member order it
// is exactly 0 (not added), while other orders leave a +5.6e-17 residue that
// admits it. Summing while ranging over the member map made the answer
// depend on map iteration order.
func TestScanDeterministic(t *testing.T) {
	gd := graph.FromEdges(5, []graph.Edge{
		{U: 3, V: 0, W: 2}, {U: 3, V: 1, W: 2}, {U: 3, V: 2, W: 2},
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 1},
		{U: 0, V: 4, W: 0.3}, {U: 1, V: 4, W: 0.4}, {U: 2, V: 4, W: -0.7},
	})
	want := []int{0, 1, 2, 3}
	for i := 0; i < 200; i++ {
		if got := Scan(runstate.New(nil), gd).S; !slices.Equal(got, want) {
			t.Fatalf("run %d: Scan returned %v, want %v", i, got, want)
		}
	}
}

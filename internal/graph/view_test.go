package graph_test

// View-semantics tests for the CSR refactor: a masked view (PositivePart,
// WithoutVertices, and their compositions) must be observationally identical
// to the graph rebuilt from its filtered edge list, and every graph — plain
// or view — must satisfy the structural invariants the solvers rely on.

import (
	"math/rand"
	"testing"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
)

// checkInvariants verifies the internal-consistency contract of any Graph:
// M/TotalWeight match an edge scan, adjacency rows are strictly sorted with
// no zero (or mask-hidden) weights, and the three iteration APIs (Neighbors,
// VisitNeighbors, VisitEdges) agree with each other and with the degree
// accessors.
func checkInvariants(t *testing.T, g *graph.Graph) {
	t.Helper()
	m := 0
	var tw float64
	g.VisitEdges(func(u, v int, w float64) {
		if u >= v {
			t.Fatalf("VisitEdges emitted non-canonical pair (%d,%d)", u, v)
		}
		if w == 0 {
			t.Fatalf("VisitEdges emitted zero-weight edge (%d,%d)", u, v)
		}
		m++
		tw += w
	})
	if m != g.M() {
		t.Fatalf("M() = %d but edge scan found %d", g.M(), m)
	}
	if diff := tw - g.TotalWeight(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("TotalWeight() = %v but edge scan summed %v", g.TotalWeight(), tw)
	}
	if len(g.Edges()) != m {
		t.Fatalf("Edges() returned %d edges, scan found %d", len(g.Edges()), m)
	}
	for u := 0; u < g.N(); u++ {
		row := g.Neighbors(u)
		if len(row) != g.OutDegree(u) {
			t.Fatalf("vertex %d: len(Neighbors) = %d, OutDegree = %d", u, len(row), g.OutDegree(u))
		}
		var wd float64
		for i, nb := range row {
			if i > 0 && row[i-1].To >= nb.To {
				t.Fatalf("vertex %d: Neighbors not strictly sorted at %d", u, i)
			}
			if nb.W == 0 {
				t.Fatalf("vertex %d: zero-weight neighbor entry %d", u, nb.To)
			}
			if got := g.Weight(u, nb.To); got != nb.W {
				t.Fatalf("Weight(%d,%d) = %v, row says %v", u, nb.To, got, nb.W)
			}
			if got := g.Weight(nb.To, u); got != nb.W {
				t.Fatalf("Weight(%d,%d) = %v, want symmetric %v", nb.To, u, got, nb.W)
			}
			wd += nb.W
		}
		if diff := wd - g.WeightedDegree(u); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("vertex %d: WeightedDegree = %v, row sums to %v", u, g.WeightedDegree(u), wd)
		}
		// VisitNeighbors must agree with Neighbors entry for entry.
		i := 0
		g.VisitNeighbors(u, func(v int, w float64) {
			if i >= len(row) || row[i].To != v || row[i].W != w {
				t.Fatalf("vertex %d: VisitNeighbors diverges from Neighbors at %d", u, i)
			}
			i++
		})
		if i != len(row) {
			t.Fatalf("vertex %d: VisitNeighbors visited %d entries, Neighbors has %d", u, i, len(row))
		}
	}
}

// sameGraph asserts g and want are observationally identical.
func sameGraph(t *testing.T, g, want *graph.Graph) {
	t.Helper()
	if g.N() != want.N() || g.M() != want.M() {
		t.Fatalf("shape mismatch: (n=%d,m=%d) vs (n=%d,m=%d)", g.N(), g.M(), want.N(), want.M())
	}
	if diff := g.TotalWeight() - want.TotalWeight(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("TotalWeight %v vs %v", g.TotalWeight(), want.TotalWeight())
	}
	want.VisitEdges(func(u, v int, w float64) {
		if got := g.Weight(u, v); got != w {
			t.Fatalf("Weight(%d,%d) = %v, want %v", u, v, got, w)
		}
	})
	g.VisitEdges(func(u, v int, w float64) {
		if got := want.Weight(u, v); got != w {
			t.Fatalf("extra edge (%d,%d) = %v not in reference", u, v, w)
		}
	})
}

// rebuildPositive is the pre-refactor PositivePart: a from-scratch build.
func rebuildPositive(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.N())
	g.VisitEdges(func(u, v int, w float64) {
		if w > 0 {
			b.AddEdge(u, v, w)
		}
	})
	return b.Build()
}

// rebuildWithout is the pre-refactor WithoutVertices: a from-scratch build.
func rebuildWithout(g *graph.Graph, S []int) *graph.Graph {
	drop := make(map[int]bool, len(S))
	for _, v := range S {
		drop[v] = true
	}
	b := graph.NewBuilder(g.N())
	g.VisitEdges(func(u, v int, w float64) {
		if !drop[u] && !drop[v] {
			b.AddEdge(u, v, w)
		}
	})
	return b.Build()
}

func randomSigned(rng *rand.Rand, n, edges int) *graph.Graph {
	b := graph.NewBuilder(n)
	for k := 0; k < edges; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, float64(rng.Intn(9)-4))
		}
	}
	return b.Build()
}

func TestPositivePartViewEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		g := randomSigned(rng, 3+rng.Intn(30), 60)
		gp := g.PositivePart()
		if gp.IsView() {
			t.Fatal("PositivePart must return a plain graph")
		}
		checkInvariants(t, gp)
		sameGraph(t, gp, rebuildPositive(g))
		// GD+ of a view is plain too, and matches GD+ of the rebuilt graph.
		S := []int{0, 2}
		wp := g.WithoutVertices(S).PositivePart()
		if wp.IsView() {
			t.Fatal("PositivePart of a view must return a plain graph")
		}
		checkInvariants(t, wp)
		sameGraph(t, wp, rebuildPositive(rebuildWithout(g, S)))
	}
}

func TestWithoutVerticesViewEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(30)
		g := randomSigned(rng, n, 60)
		var S []int
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.3 {
				S = append(S, v)
			}
		}
		gw := g.WithoutVertices(S)
		checkInvariants(t, gw)
		sameGraph(t, gw, rebuildWithout(g, S))
		for _, v := range S {
			if gw.OutDegree(v) != 0 || gw.WeightedDegree(v) != 0 || gw.Neighbors(v) != nil {
				t.Fatalf("dropped vertex %d still has visible edges", v)
			}
		}
		// The receiver is untouched.
		checkInvariants(t, g)
	}
}

// TestViewComposition layers masks the way TopKAverageDegree and the affinity
// pipeline do: repeated WithoutVertices (accumulating drops), and
// PositivePart and WithoutVertices applied in both orders.
func TestViewComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 6 + rng.Intn(25)
		g := randomSigned(rng, n, 80)
		S1 := []int{0, 2}
		S2 := []int{1, 2, 4} // overlaps S1: double-drop must not double-count
		w1 := g.WithoutVertices(S1)
		w12 := w1.WithoutVertices(S2)
		checkInvariants(t, w12)
		sameGraph(t, w12, rebuildWithout(g, []int{0, 1, 2, 4}))

		pw := g.WithoutVertices(S1).PositivePart()
		wp := g.PositivePart().WithoutVertices(S1)
		checkInvariants(t, pw)
		checkInvariants(t, wp)
		want := rebuildPositive(rebuildWithout(g, S1))
		sameGraph(t, pw, want)
		sameGraph(t, wp, want)
	}
}

// TestMaskedVsRebuiltOnDatagen runs the equivalence check on the realistic
// difference graphs the solvers actually consume.
func TestMaskedVsRebuiltOnDatagen(t *testing.T) {
	d := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 3, N: 300})
	gd := graph.Difference(d.G1, d.G2)
	checkInvariants(t, gd)

	gp := gd.PositivePart()
	checkInvariants(t, gp)
	sameGraph(t, gp, rebuildPositive(gd))

	// Strip the planted emerging groups one by one, as top-k mining does.
	work := gd
	var dropped []int
	for _, grp := range d.EmergingGroups {
		dropped = append(dropped, grp...)
		work = work.WithoutVertices(grp)
		checkInvariants(t, work)
		sameGraph(t, work, rebuildWithout(gd, dropped))
	}
}

// TestViewMetricsMatchRebuilt checks the subgraph metrics used by the result
// constructors against a rebuilt graph, on sets crossing the mask boundary.
func TestViewMetricsMatchRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := randomSigned(rng, 24, 90)
	S := []int{1, 3, 5, 7}
	gw := g.WithoutVertices(S)
	ref := rebuildWithout(g, S)
	sets := [][]int{
		{0, 2, 4}, {1, 2, 3}, {5, 6, 7, 8}, {0, 1, 2, 3, 4, 5},
	}
	for _, set := range sets {
		if got, want := gw.TotalDegreeOf(set), ref.TotalDegreeOf(set); got != want {
			t.Fatalf("TotalDegreeOf(%v) = %v, want %v", set, got, want)
		}
		if got, want := gw.AverageDegreeOf(set), ref.AverageDegreeOf(set); got != want {
			t.Fatalf("AverageDegreeOf(%v) = %v, want %v", set, got, want)
		}
		if got, want := gw.IsPositiveClique(set), ref.IsPositiveClique(set); got != want {
			t.Fatalf("IsPositiveClique(%v) = %v, want %v", set, got, want)
		}
		if got, want := gw.IsConnected(set), ref.IsConnected(set); got != want {
			t.Fatalf("IsConnected(%v) = %v, want %v", set, got, want)
		}
		gi, _ := gw.Induced(set)
		ri, _ := ref.Induced(set)
		sameGraph(t, gi, ri)
	}
}

// TestTransformsOnViews checks that weight-mapping operations flatten a view
// correctly instead of leaking hidden edges.
func TestTransformsOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomSigned(rng, 20, 70)
	v := g.PositivePart().WithoutVertices([]int{2, 4})
	want := rebuildPositive(rebuildWithout(g, []int{2, 4}))

	sameGraph(t, g.WithoutVertices([]int{2, 4}).PositivePart(), want)
	sameGraph(t, v.Scale(2.5), want.Scale(2.5))
	sameGraph(t, v.Negate(), want.Negate())
	sameGraph(t, v.CapWeights(2), want.CapWeights(2))
	if got := v.Scale(0); got.M() != 0 || got.N() != g.N() {
		t.Fatalf("Scale(0) = (n=%d,m=%d), want edgeless over %d vertices", got.N(), got.M(), g.N())
	}
	// Difference over view inputs compacts them first.
	d := graph.Difference(v, want)
	if d.M() != 0 {
		t.Fatalf("Difference(view, equivalent plain) has %d edges, want 0", d.M())
	}
}

func TestComputeStatsOnView(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := randomSigned(rng, 18, 60)
	v := g.WithoutVertices([]int{0, 9})
	ref := rebuildWithout(g, []int{0, 9})
	sv, sr := v.ComputeStats(), ref.ComputeStats()
	if sv != sr {
		t.Fatalf("view stats %+v differ from rebuilt stats %+v", sv, sr)
	}
}

package graph

import (
	"math"
	"math/rand"
	"testing"
)

// edgeMap flattens a graph into a canonical pair→weight map for tolerant
// comparison.
func edgeMap(g *Graph) map[[2]int]float64 {
	m := map[[2]int]float64{}
	g.VisitEdges(func(u, v int, w float64) { m[[2]int{u, v}] = w })
	return m
}

// assertApproxGraph compares two graphs edge-for-edge under a relative
// tolerance — the incremental recurrence rounds differently from the scratch
// rebuild, so bitwise equality is the wrong bar, but every weight must agree
// to ~1e-9 relative (absent edges count as 0).
func assertApproxGraph(t *testing.T, label string, got, want *Graph, tol float64) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: vertex count %d vs %d", label, got.N(), want.N())
	}
	gm, wm := edgeMap(got), edgeMap(want)
	// Tolerance is relative to the largest weight present, not the weight
	// being compared: differences of huge near-equal observations cancel
	// catastrophically, so the achievable error is a few ulps of the
	// *operands* (which the incremental and scratch paths round in
	// different orders), with an absolute floor of tol for exact zeros.
	floor := 1.0
	for _, w := range wm {
		floor = math.Max(floor, math.Abs(w))
	}
	for _, w := range gm {
		floor = math.Max(floor, math.Abs(w))
	}
	check := func(k [2]int, a, b float64) {
		if math.Abs(a-b) > tol*floor {
			t.Fatalf("%s: edge (%d,%d) got %v, want %v", label, k[0], k[1], a, b)
		}
	}
	for k, a := range gm {
		check(k, a, wm[k])
	}
	for k, b := range wm {
		if _, ok := gm[k]; !ok {
			check(k, 0, b)
		}
	}
}

// scratchTracker is the from-scratch oracle: the exact arithmetic
// evolve.Tracker's snapshot path uses (Difference + Blend per tick).
type scratchTracker struct {
	lambda float64
	expect *Graph
	obs    *Graph
}

func (s *scratchTracker) tick(delta []Edge) (gd *Graph) {
	s.obs = ApplyDelta(s.obs, delta)
	gd = Difference(s.expect, s.obs)
	s.expect = Blend(s.expect, s.obs, 1-s.lambda, s.lambda)
	return gd
}

// randomDelta builds a hostile random delta against the current observation:
// additions, removals, reweights, sign flips, duplicates, and (when hostile)
// subnormal and huge weights.
func randomDelta(rng *rand.Rand, obs *Graph, n int, hostile bool) []Edge {
	edges := obs.Edges()
	var delta []Edge
	for k, kn := 0, 1+rng.Intn(6); k < kn; k++ {
		switch op := rng.Intn(5); {
		case op == 0 && len(edges) > 0: // remove
			e := edges[rng.Intn(len(edges))]
			delta = append(delta, Edge{U: e.U, V: e.V, W: 0})
		case op == 1 && len(edges) > 0: // sign flip
			e := edges[rng.Intn(len(edges))]
			delta = append(delta, Edge{U: e.V, V: e.U, W: -e.W})
		case op == 2 && hostile: // hostile magnitude
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := 5e-310 // subnormal
			if rng.Intn(2) == 0 {
				// Huge but bounded: the scratch oracle's Difference
				// overflows to ±Inf near 1e308, which would poison it.
				w = 1e150
			}
			if rng.Intn(2) == 0 {
				w = -w
			}
			delta = append(delta, Edge{U: u, V: v, W: w})
		default: // set an arbitrary (possibly duplicate) pair
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			delta = append(delta, Edge{U: u, V: v, W: (rng.Float64()*8 - 3)})
		}
	}
	return delta
}

// TestMaintainerMatchesScratch is the core property test of the streaming
// engine: over randomized delta streams, the maintained observation,
// difference graph, and expectation must agree with the from-scratch
// ApplyDelta/Difference/Blend pipeline at every tick, across λ values that
// exercise slow decay, renormalization, and the λ = 1 degenerate case.
func TestMaintainerMatchesScratch(t *testing.T) {
	for _, lambda := range []float64{0.05, 0.3, 0.9, 1.0} {
		rng := rand.New(rand.NewSource(int64(1000 * lambda)))
		for trial := 0; trial < 8; trial++ {
			n := 2 + rng.Intn(30)
			expect := randomGraph(rng, n, rng.Intn(3*n))
			obs := randomGraph(rng, n, rng.Intn(3*n))
			mt := NewMaintainer(expect, obs, lambda)
			oracle := &scratchTracker{lambda: lambda, expect: expect, obs: obs}
			hostile := trial%3 == 0
			// Enough ticks to force at least one renormalization at
			// every λ (λ=0.05 needs ~270; cap the slow case).
			ticks := 60
			if lambda < 0.1 {
				ticks = 300
			}
			for tick := 0; tick < ticks; tick++ {
				delta := randomDelta(rng, oracle.obs, n, hostile)
				touched := mt.BeginTick(delta)
				gd := oracle.tick(delta)
				for i := 1; i < len(touched); i++ {
					if touched[i-1] >= touched[i] {
						t.Fatalf("touched not sorted-unique: %v", touched)
					}
				}
				assertApproxGraph(t, "diff", mt.DiffGraph(), gd, 1e-8)
				mt.EndTick()
				assertApproxGraph(t, "obs", mt.Observation(), oracle.obs, 0)
				assertApproxGraph(t, "expect", mt.Expectation(), oracle.expect, 1e-6)
			}
			if mt.Scale() < renormScale {
				t.Fatalf("λ=%v: scale %v below renorm floor", lambda, mt.Scale())
			}
		}
	}
}

// TestMaintainerMidTickExpectation pins the checkpoint invariant: between
// BeginTick and EndTick, Expectation() still materializes the *pre-tick*
// expectation — a checkpoint taken while a solve is in flight must not
// observe a half-folded EWMA state.
func TestMaintainerMidTickExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	expect := randomGraph(rng, 20, 40)
	obs := randomGraph(rng, 20, 40)
	mt := NewMaintainer(expect, obs, 0.4)
	cur := obs
	for tick := 0; tick < 25; tick++ {
		beforeExpect := mt.Expectation()
		beforeObs := mt.Observation()
		delta := randomDelta(rng, cur, 20, false)
		cur = ApplyDelta(cur, delta)
		mt.BeginTick(delta)
		// The in-flight delta must be invisible to a checkpoint: both
		// graphs still describe the last completed tick.
		assertApproxGraph(t, "mid-tick expect", mt.Expectation(), beforeExpect, 1e-9)
		assertApproxGraph(t, "mid-tick obs", mt.Observation(), beforeObs, 0)
		mt.EndTick()
		assertApproxGraph(t, "post-tick obs", mt.Observation(), cur, 0)
	}
}

// TestMaintainerDiffAccessors checks DiffInduced and VisitDiffNeighbors
// against the materialized DiffGraph.
func TestMaintainerDiffAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	expect := randomGraph(rng, 25, 60)
	obs := randomGraph(rng, 25, 60)
	mt := NewMaintainer(expect, obs, 0.3)
	for tick := 0; tick < 10; tick++ {
		mt.BeginTick(randomDelta(rng, mt.Observation(), 25, false))
		gd := mt.DiffGraph()

		// A random region, including vertices outside any edge.
		var S []int
		for v := 0; v < 25; v++ {
			if rng.Intn(2) == 0 {
				S = append(S, v)
			}
		}
		ind, orig := mt.DiffInduced(S)
		want, worig := gd.Induced(S)
		if len(orig) != len(worig) {
			t.Fatalf("orig mapping length %d vs %d", len(orig), len(worig))
		}
		assertSameGraph(t, ind, want)

		for u := 0; u < 25; u++ {
			var visited []Neighbor
			mt.VisitDiffNeighbors(u, func(v int, w float64) {
				visited = append(visited, Neighbor{To: v, W: w})
			})
			row := gd.Neighbors(u)
			if len(visited) != len(row) {
				t.Fatalf("vertex %d: visited %d neighbors, want %d", u, len(visited), len(row))
			}
			for i := range row {
				if visited[i] != row[i] {
					t.Fatalf("vertex %d neighbor %d: %+v vs %+v", u, i, visited[i], row[i])
				}
			}
		}
		mt.EndTick()
	}
}

// TestMaintainerTickProtocol pins the Begin/End pairing contract.
func TestMaintainerTickProtocol(t *testing.T) {
	mt := NewMaintainer(NewBuilder(3).Build(), NewBuilder(3).Build(), 0.5)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bare EndTick", mt.EndTick)
	mt.BeginTick(nil)
	mustPanic("nested BeginTick", func() { mt.BeginTick(nil) })
	mt.EndTick()

	mustPanic("mismatched seed", func() {
		NewMaintainer(NewBuilder(3).Build(), NewBuilder(4).Build(), 0.5)
	})
	mustPanic("bad lambda", func() {
		NewMaintainer(NewBuilder(3).Build(), NewBuilder(3).Build(), 0)
	})
}

// TestMaintainerRemovalTombstones: edges removed and re-added keep working,
// and renormalization drops dead slots instead of leaking them forever.
func TestMaintainerRemovalTombstones(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 2)
	obs := b.Build()
	mt := NewMaintainer(NewBuilder(4).Build(), obs, 1) // λ=1: renorm every tick
	mt.BeginTick([]Edge{{U: 0, V: 1, W: 0}, {U: 2, V: 3, W: 5}})
	mt.EndTick() // λ=1 renorm: the (0,1) tombstone must be dropped
	if g := mt.Observation(); g.M() != 1 || g.Weight(2, 3) != 5 || g.Weight(0, 1) != 0 {
		t.Fatalf("post-removal observation: %+v", g.Edges())
	}
	if row := mt.rows[0]; len(row) != 0 {
		t.Fatalf("tombstone slot survived renorm: %+v", row)
	}
	mt.BeginTick([]Edge{{U: 0, V: 1, W: 3}})
	mt.EndTick()
	if g := mt.Observation(); g.Weight(0, 1) != 3 {
		t.Fatalf("re-added edge lost: %+v", g.Edges())
	}
}

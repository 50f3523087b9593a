package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/partest"
	"github.com/dcslib/dcs/internal/runstate"
)

func TestMaxRatioContrastUnbounded(t *testing.T) {
	type edge struct {
		u, v int
		w    float64
	}
	build := func(n int, es []edge) *graph.Graph {
		b := graph.NewBuilder(n)
		for _, e := range es {
			b.AddEdge(e.u, e.v, e.w)
		}
		return b.Build()
	}
	for _, tc := range []struct {
		name         string
		n            int
		g1, g2       []edge
		s            []int
		dens2, dens1 float64
	}{
		// Edge (0,1) exists only in G2 (Section III-C's degenerate case).
		{"g2-only", 3, []edge{{1, 2, 1}}, []edge{{0, 1, 5}, {1, 2, 1}}, []int{0, 1}, 5, 0},
		// w1 < 0 on edge (0,1): {0,1} has ρ2 = 1 ≥ α·ρ1 = −α for every α ≥ 0.
		{"g1-negative", 3, []edge{{0, 1, -1}, {1, 2, 1}}, []edge{{0, 1, 1}, {1, 2, 1}}, []int{0, 1}, 1, -1},
		// A G2-only edge takes precedence as the witness.
		{"both", 4, []edge{{0, 1, -2}}, []edge{{0, 1, 1}, {2, 3, 4}}, []int{2, 3}, 4, 0},
	} {
		res := MaxRatioContrast(runstate.New(nil), build(tc.n, tc.g1), build(tc.n, tc.g2), 1)
		if !math.IsInf(res.Alpha, 1) || !slices.Equal(res.S, tc.s) ||
			res.Density2 != tc.dens2 || res.Density1 != tc.dens1 {
			t.Fatalf("%s: got α=%v S=%v ρ2=%v ρ1=%v, want +Inf on %v with ρ2=%v ρ1=%v",
				tc.name, res.Alpha, res.S, res.Density2, res.Density1, tc.s, tc.dens2, tc.dens1)
		}
	}
}

func TestMaxRatioContrastSimple(t *testing.T) {
	// Every edge in both graphs; edge (0,1) tripled, edge (1,2) halved.
	// Max ratio subgraph is {0,1} with ratio 3.
	b1 := graph.NewBuilder(3)
	b1.AddEdge(0, 1, 2)
	b1.AddEdge(1, 2, 4)
	b2 := graph.NewBuilder(3)
	b2.AddEdge(0, 1, 6)
	b2.AddEdge(1, 2, 2)
	res := MaxRatioContrast(runstate.New(nil), b1.Build(), b2.Build(), 1)
	if math.Abs(res.Alpha-3) > 1e-6 {
		t.Fatalf("alpha = %v, want 3", res.Alpha)
	}
	if len(res.S) != 2 || res.S[0] != 0 || res.S[1] != 1 {
		t.Fatalf("witness = %v, want [0 1]", res.S)
	}
	if math.Abs(res.Density2/res.Density1-res.Alpha) > 1e-6 {
		t.Fatal("witness densities must certify alpha")
	}
}

func TestMaxRatioContrastNoGrowth(t *testing.T) {
	// G2 weights uniformly half of G1: best ratio is 0.5.
	b1 := graph.NewBuilder(4)
	b2 := graph.NewBuilder(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b1.AddEdge(u, v, 2)
			b2.AddEdge(u, v, 1)
		}
	}
	res := MaxRatioContrast(runstate.New(nil), b1.Build(), b2.Build(), 1)
	if math.Abs(res.Alpha-0.5) > 1e-6 {
		t.Fatalf("alpha = %v, want 0.5", res.Alpha)
	}
}

func TestMaxRatioContrastEmptyG2(t *testing.T) {
	b1 := graph.NewBuilder(3)
	b1.AddEdge(0, 1, 1)
	res := MaxRatioContrast(runstate.New(nil), b1.Build(), graph.NewBuilder(3).Build(), 1)
	if res.Alpha != 0 {
		t.Fatalf("alpha = %v, want 0 for edgeless G2", res.Alpha)
	}
}

// Property: the returned witness always certifies the returned α, and α is a
// valid lower bound on the brute-force maximum ratio.
func TestMaxRatioContrastCertified(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		b1 := graph.NewBuilder(n)
		b2 := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.6 {
					w1 := float64(1 + rng.Intn(5))
					b1.AddEdge(u, v, w1)
					if rng.Float64() < 0.9 { // mostly keep the edge in G2
						b2.AddEdge(u, v, float64(1+rng.Intn(5)))
					}
				}
			}
		}
		g1, g2 := b1.Build(), b2.Build()
		res := MaxRatioContrast(runstate.New(nil), g1, g2, 1)
		if math.IsInf(res.Alpha, 1) {
			// Witness must be a G2-only edge.
			return len(res.S) == 2 && g1.Weight(res.S[0], res.S[1]) == 0 &&
				g2.Weight(res.S[0], res.S[1]) > 0
		}
		if res.Alpha == 0 {
			return true
		}
		// Certification.
		if res.Density1 <= 0 || res.Density2/res.Density1 < res.Alpha-1e-9 {
			return false
		}
		// Lower bound vs brute force over all subsets with ρ1 > 0.
		best := 0.0
		for mask := 1; mask < 1<<uint(n); mask++ {
			var S []int
			for v := 0; v < n; v++ {
				if mask&(1<<uint(v)) != 0 {
					S = append(S, v)
				}
			}
			d1 := g1.AverageDegreeOf(S)
			d2 := g2.AverageDegreeOf(S)
			if d1 > 0 && d2 > 0 && d2/d1 > best {
				best = d2 / d1
			}
		}
		return res.Alpha <= best+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// referenceRatio is the α search with a full Algorithm 2 at every probe:
// DCSGreedy on a freshly built G2 − αG1, feasible when its density exceeds
// 1e-12. MaxRatioContrast must match it bit for bit.
func referenceRatio(g1, g2 *graph.Graph) RatioResult {
	hi, res, done := ratioBracket(g1, g2)
	if done {
		return res
	}
	feasible := func(alpha float64) ([]int, bool) {
		r := DCSGreedy(runstate.New(nil), graph.DifferenceAlpha(g1, g2, alpha), 1)
		return r.S, r.Density > 1e-12
	}
	bestS, ok := feasible(0)
	if !ok {
		return RatioResult{}
	}
	lo, hiBound := 0.0, hi*(1+1e-9)
	for it := 0; it < ratioRounds && hiBound-lo > 1e-12*(1+hiBound); it++ {
		mid := (lo + hiBound) / 2
		if S, ok := feasible(mid); ok {
			bestS, lo = S, mid
		} else {
			hiBound = mid
		}
	}
	d1, d2 := g1.AverageDegreeOf(bestS), g2.AverageDegreeOf(bestS)
	alpha := lo
	if d1 > 0 && d2/d1 > alpha {
		alpha = d2 / d1
	}
	return RatioResult{Alpha: alpha, S: bestS, Density2: d2, Density1: d1}
}

// checkRatioReference compares MaxRatioContrast at workers 1 and 4 with
// referenceRatio, bit for bit.
func checkRatioReference(t *testing.T, name string, g1, g2 *graph.Graph) {
	t.Helper()
	want := referenceRatio(g1, g2)
	for _, workers := range []int{1, 4} {
		got := MaxRatioContrast(runstate.New(context.Background()), g1, g2, workers)
		if math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) ||
			!slices.Equal(got.S, want.S) ||
			math.Float64bits(got.Density1) != math.Float64bits(want.Density1) ||
			math.Float64bits(got.Density2) != math.Float64bits(want.Density2) ||
			got.Interrupted != want.Interrupted {
			t.Fatalf("%s workers %d:\n got α=%v S=%v ρ2=%v ρ1=%v cut=%v\nwant α=%v S=%v ρ2=%v ρ1=%v",
				name, workers, got.Alpha, got.S, got.Density2, got.Density1, got.Interrupted,
				want.Alpha, want.S, want.Density2, want.Density1)
		}
	}
}

func TestRatioMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := []struct {
		name       string
		p, overlap float64
		nmax       int
	}{
		{"overlaid", 0.3, 1.0, 32},
		{"unbounded", 0.3, 0.6, 32},
		{"sparse", 0.06, 1.0, 32},
		{"tiny", 0.9, 1.0, 4},
	}
	pairs := 0
	for round := 0; round < 500; round++ {
		for _, sh := range shapes {
			n := 3 + rng.Intn(sh.nmax-2)
			g1, g2 := partest.PositivePair(rng, n, sh.p, sh.overlap)
			checkRatioReference(t, fmt.Sprintf("%s round %d", sh.name, round), g1, g2)
			pairs++
		}
	}
	// G1 = c·G2: every set's ratio is exactly 1/c, and the search bisects
	// until its relative-width stop with every probe below 1/c feasible.
	for round := 0; round < 40; round++ {
		_, g2 := partest.PositivePair(rng, 3+rng.Intn(30), 0.4, 1.0)
		for _, c := range []float64{1e-3, 0.7, 1, 3, 1e6} {
			checkRatioReference(t, fmt.Sprintf("scaled c=%v round %d", c, round), g2.Scale(c), g2)
			pairs++
		}
	}
	// A clique whose difference weights near α* are tiny and positive: its
	// density beats its maximum edge there, so the late probes fall inside
	// the max-edge margin and must run Algorithm 2.
	for round := 0; round < 60; round++ {
		k := 3 + rng.Intn(12)
		b1, b2 := graph.NewBuilder(k), graph.NewBuilder(k)
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				w := float64(1 + rng.Intn(4))
				b1.AddEdge(u, v, w)
				b2.AddEdge(u, v, w*(1+1e-9*(2*rng.Float64()-1)))
			}
		}
		checkRatioReference(t, fmt.Sprintf("clique round %d", round), b1.Build(), b2.Build())
		pairs++
	}
	// Weights spanning 1e-6…1e6 on both sides.
	for round := 0; round < 100; round++ {
		n := 3 + rng.Intn(30)
		b1, b2 := graph.NewBuilder(n), graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					b1.AddEdge(u, v, math.Pow(10, 12*rng.Float64()-6))
					b2.AddEdge(u, v, math.Pow(10, 12*rng.Float64()-6))
				}
			}
		}
		checkRatioReference(t, fmt.Sprintf("wide round %d", round), b1.Build(), b2.Build())
		pairs++
	}
	if pairs < 2000 {
		t.Fatalf("only %d pairs checked", pairs)
	}
}

// ratioPairFromBytes decodes fuzz input into a ratio-search input: byte 0
// picks the vertex count (2..17), then each (u, v, w1, w2) quadruple adds an
// edge to both graphs, with weights drawn from a table that mixes absent,
// negative, tiny, huge and near-equal values.
func ratioPairFromBytes(data []byte) (g1, g2 *graph.Graph) {
	if len(data) < 5 {
		return nil, nil
	}
	weights := []float64{0, 1, 2, 3, 0.5, 1.0000001, 1e-6, 1e6, 7.25, -1}
	n := 2 + int(data[0])%16
	b1, b2 := graph.NewBuilder(n), graph.NewBuilder(n)
	for i := 1; i+3 < len(data); i += 4 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u == v {
			continue
		}
		if w := weights[int(data[i+2])%len(weights)]; w != 0 {
			b1.AddEdge(u, v, w)
		}
		if w := weights[int(data[i+3])%len(weights)]; w != 0 {
			b2.AddEdge(u, v, w)
		}
	}
	return b1.Build(), b2.Build()
}

// FuzzRatioReference cross-checks MaxRatioContrast against referenceRatio
// on fuzzer-built pairs, at workers 1 and 4.
func FuzzRatioReference(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 1, 2, 1, 1, 2, 3, 2, 5})
	f.Add([]byte{3, 0, 1, 9, 1, 1, 2, 1, 1})
	f.Add([]byte{6, 0, 1, 6, 5, 0, 2, 6, 6, 1, 2, 6, 5, 3, 4, 7, 7})
	f.Add([]byte{8, 0, 1, 1, 5, 1, 2, 1, 5, 0, 2, 1, 5, 4, 5, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g1, g2 := ratioPairFromBytes(data)
		if g1 == nil {
			return
		}
		checkRatioReference(t, "fuzz", g1, g2)
	})
}

// TestRatioWorkCounters pins the search's work on the golden bounded
// inputs: the binary search tries its 40 α values, and Algorithm 2 runs at
// only the few probes whose maximum edge cannot decide them, plus the
// witness solve.
func TestRatioWorkCounters(t *testing.T) {
	for _, in := range []struct {
		seed int64
		n    int
	}{{1, 600}, {7, 600}, {3, 2000}} {
		c := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: in.seed, N: in.n})
		g1 := graph.Blend(c.G1, c.G2, 1, 1)
		seq := MaxRatioContrast(runstate.New(nil), g1, c.G2, 1)
		par := MaxRatioContrast(runstate.New(context.Background()), g1, c.G2, 4)
		t.Logf("seed %d: %d probes, %d solves", in.seed, seq.Probes, seq.Solves)
		if seq.Probes != 40 || seq.Solves > 7 || seq.Solves < 1 {
			t.Errorf("seed %d: %d probes, %d solves; want 40 probes, 1..7 solves", in.seed, seq.Probes, seq.Solves)
		}
		if par.Probes != seq.Probes || par.Solves != seq.Solves {
			t.Errorf("seed %d: workers 4 counted %d/%d, sequential %d/%d",
				in.seed, par.Probes, par.Solves, seq.Probes, seq.Solves)
		}
	}
}

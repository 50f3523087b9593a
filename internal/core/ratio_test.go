package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/graph"
)

func TestMaxRatioContrastUnbounded(t *testing.T) {
	// Edge (0,1) exists only in G2: ratio is +Inf (Section III-C's
	// degenerate case).
	b1 := graph.NewBuilder(3)
	b1.AddEdge(1, 2, 1)
	b2 := graph.NewBuilder(3)
	b2.AddEdge(0, 1, 5)
	b2.AddEdge(1, 2, 1)
	res := MaxRatioContrast(b1.Build(), b2.Build())
	if !math.IsInf(res.Alpha, 1) {
		t.Fatalf("alpha = %v, want +Inf", res.Alpha)
	}
	if len(res.S) != 2 || res.S[0] != 0 || res.S[1] != 1 {
		t.Fatalf("witness = %v, want the G2-only edge", res.S)
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
	res := MaxRatioContrast(b1.Build(), b2.Build())
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
	res := MaxRatioContrast(b1.Build(), b2.Build())
	if math.Abs(res.Alpha-0.5) > 1e-6 {
		t.Fatalf("alpha = %v, want 0.5", res.Alpha)
	}
}

func TestMaxRatioContrastEmptyG2(t *testing.T) {
	b1 := graph.NewBuilder(3)
	b1.AddEdge(0, 1, 1)
	res := MaxRatioContrast(b1.Build(), graph.NewBuilder(3).Build())
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
		res := MaxRatioContrast(g1, g2)
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

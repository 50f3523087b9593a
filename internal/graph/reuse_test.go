package graph

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b are the same plain graph bit for bit:
// counts, total weight and every CSR entry, weights compared by their bits.
func sameBits(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() ||
		math.Float64bits(got.TotalWeight()) != math.Float64bits(want.TotalWeight()) {
		t.Fatalf("%s: n/m/W = %d/%d/%v, want %d/%d/%v", what,
			got.N(), got.M(), got.TotalWeight(), want.N(), want.M(), want.TotalWeight())
	}
	goff, gids, gws, _, _ := got.CSR()
	woff, wids, wws, _, _ := want.CSR()
	for u := range woff {
		if goff[u] != woff[u] {
			t.Fatalf("%s: off[%d] = %d, want %d", what, u, goff[u], woff[u])
		}
	}
	if len(gids) != len(wids) || len(gws) != len(wws) {
		t.Fatalf("%s: %d/%d entries, want %d/%d", what, len(gids), len(gws), len(wids), len(wws))
	}
	for i := range wids {
		if gids[i] != wids[i] || math.Float64bits(gws[i]) != math.Float64bits(wws[i]) {
			t.Fatalf("%s: entry %d = (%d, %v), want (%d, %v)", what, i, gids[i], gws[i], wids[i], wws[i])
		}
	}
}

func randomIntGraph(rng *rand.Rand, n, edges, wmax int) *Graph {
	b := NewBuilder(n)
	for k := 0; k < edges; k++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			if w := rng.Intn(2*wmax+1) - wmax; w != 0 {
				b.AddEdge(u, v, float64(w))
			}
		}
	}
	return b.Build()
}

// TestUnionDifferenceAlphaIntoMatches: re-weighting the merged topology into
// one reused graph reproduces DifferenceAlpha bit for bit at every α —
// including exact cancellations (integer weights at α = 1) — on plain and
// view inputs, as dst shrinks and grows between calls.
func TestUnionDifferenceAlphaIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var dst Graph
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		g1 := randomIntGraph(rng, n, rng.Intn(4*n), 3)
		g2 := randomIntGraph(rng, n, rng.Intn(4*n), 3)
		inputs := [][2]*Graph{{g1, g2},
			{g1.WithoutVertices([]int{0, n - 1}), g2.PositivePart()}}
		for _, in := range inputs {
			u := NewUnion(in[0], in[1])
			for _, alpha := range []float64{0, 1, 0.37, 2.5, 1e-9} {
				got := u.DifferenceAlphaInto(alpha, &dst)
				if got != &dst || !got.reused {
					t.Fatal("DifferenceAlphaInto must return dst, marked reused")
				}
				sameBits(t, "DifferenceAlphaInto", got, DifferenceAlpha(in[0], in[1], alpha))
			}
		}
	}
}

// TestPositivePartInto: views and reused graphs materialize GD+ into dst,
// bitwise PositivePartCompact's graph, without memoizing; a plain graph
// hands back its shared memo.
func TestPositivePartInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomIntGraph(rng, 40, 160, 4)
	if g.PositivePartInto(new(Graph)) != g.PositivePartCompact() {
		t.Fatal("a plain graph must return its memoized GD+")
	}
	var dst, probe Graph
	for _, v := range []*Graph{g.WithoutVertices([]int{1, 2, 3}), g.PositivePart(),
		NewUnion(g, g.Negate()).DifferenceAlphaInto(0.5, &probe)} {
		want := v.Compact().mapWeights(positiveWeight)
		got := v.PositivePartInto(&dst)
		if got != &dst {
			t.Fatal("PositivePartInto must materialize into dst")
		}
		sameBits(t, "PositivePartInto", got, want)
		if v.pos.Load() != nil {
			t.Fatal("a view or reused graph must not memoize GD+")
		}
	}
	if probe.PositivePartCompact() == probe.PositivePartCompact() {
		t.Fatal("PositivePartCompact must not memoize on reused storage")
	}
}

// TestIsConnectedMatchesComponents: the pooled single search agrees with
// the component partition on random subsets of random graphs.
func TestIsConnectedMatchesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		g := randomIntGraph(rng, n, rng.Intn(3*n), 2)
		S := rng.Perm(n)[:1+rng.Intn(n)]
		if got, want := g.IsConnected(S), len(g.ConnectedComponents(S)) == 1; got != want {
			t.Fatalf("IsConnected(%v) = %v, components say %v", S, got, want)
		}
	}
}

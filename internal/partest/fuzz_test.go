package partest

import (
	"slices"
	"testing"

	"github.com/dcslib/dcs/internal/densest"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// graphFromBytes decodes fuzz input into a small graph: byte 0 picks the
// vertex count (2..25), then each (u, v, w) triple adds an edge. Weights are
// quarter-integers in [−31.75, 31.75] — exact dyadic rationals, so every
// degree and density sum is exact in float64 no matter how it is associated,
// and any mismatch between the two peels below is a real ordering bug rather
// than float noise. Parallel edges merge by summation (Builder semantics),
// which the fuzzer will find and which must cancel exactly too.
func graphFromBytes(data []byte) *graph.Graph {
	if len(data) < 4 {
		return nil
	}
	n := 2 + int(data[0])%24
	b := graph.NewBuilder(n)
	for i := 1; i+2 < len(data); i += 3 {
		u := int(data[i]) % n
		v := int(data[i+1]) % n
		if u == v {
			continue
		}
		w := float64(int(data[i+2])-128) / 4
		if w == 0 {
			continue
		}
		b.AddEdge(u, v, w)
	}
	return b.Build()
}

// FuzzPeelMerge cross-checks the component-parallel peel (per-component
// heaps + k-way merge replay) against GreedySegTree, an independent
// implementation of the same algorithm over a single global segment tree.
// The two share no peeling code, so agreement on arbitrary fuzzer-built
// graphs is strong evidence the merge reconstructs the global removal order
// exactly — including degree ties, negative weights and graphs that collapse
// to isolated vertices.
func FuzzPeelMerge(f *testing.F) {
	f.Add([]byte{5, 0, 1, 132, 1, 2, 120, 2, 3, 200})
	f.Add([]byte{2, 0, 1, 129})
	f.Add([]byte{24, 0, 1, 132, 2, 3, 132, 4, 5, 132, 6, 7, 124})
	f.Add([]byte{10, 0, 1, 132, 0, 1, 124, 1, 2, 255, 3, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(data)
		if g == nil {
			return
		}
		oracle := densest.GreedySegTree(g)
		for _, deg := range Degrees {
			got := densest.Greedy(runstate.New(nil), g, deg)
			if got.Density != oracle.Density {
				t.Fatalf("degree %d: density %v, oracle %v", deg, got.Density, oracle.Density)
			}
			if !slices.Equal(got.S, oracle.S) {
				t.Fatalf("degree %d: S %v, oracle %v", deg, got.S, oracle.S)
			}
		}
	})
}

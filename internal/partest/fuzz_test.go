package partest

import (
	"encoding/binary"
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

// viewFromBytes masks the vertices of g picked by the bits of data's last
// four bytes (little-endian; bit v masks vertex v), so the fuzzer also peels
// views whose masked vertices still carry edges in the shared rows.
func viewFromBytes(g *graph.Graph, data []byte) *graph.Graph {
	bits := binary.LittleEndian.Uint32(data[len(data)-4:])
	var drop []int
	for v := 0; v < g.N(); v++ {
		if bits&(1<<v) != 0 {
			drop = append(drop, v)
		}
	}
	return g.WithoutVertices(drop)
}

// FuzzPeel cross-checks the heap peel against GreedySegTree, an independent
// implementation of the same algorithm over a segment tree, on a fuzzer-built
// graph and on a view of it. The two share no peeling code, so agreement on
// arbitrary graphs is strong evidence that the heap peel removes vertices in
// the exact (degree, id) order — including degree ties, negative weights,
// graphs that collapse to isolated vertices and masked vertices, which must
// leave at degree 0 without touching their neighbours.
func FuzzPeel(f *testing.F) {
	f.Add([]byte{5, 0, 1, 132, 1, 2, 120, 2, 3, 200})
	f.Add([]byte{2, 0, 1, 129})
	f.Add([]byte{24, 0, 1, 132, 2, 3, 132, 4, 5, 132, 6, 7, 124})
	f.Add([]byte{10, 0, 1, 132, 0, 1, 124, 1, 2, 255, 3, 4, 0})
	// A path 0–1–2 whose end 2 is masked: 2 pops first, at degree 0, and
	// must leave 1's degree alone.
	f.Add([]byte{1, 0, 1, 144, 1, 2, 144, 4, 0, 128, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(data)
		if g == nil {
			return
		}
		for _, g := range []*graph.Graph{g, viewFromBytes(g, data)} {
			oracle := densest.GreedySegTree(g)
			got := densest.Greedy(runstate.New(nil), g)
			if got.Density != oracle.Density {
				t.Fatalf("view %v: density %v, oracle %v", g.IsView(), got.Density, oracle.Density)
			}
			if !slices.Equal(got.S, oracle.S) {
				t.Fatalf("view %v: S %v, oracle %v", g.IsView(), got.S, oracle.S)
			}
		}
	})
}

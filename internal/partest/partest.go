// Package partest is the sequential-equivalence harness for the parallel
// solver engine: generators for the graph families where parallel rounds
// break first, plus the shared degree ladder every equivalence test runs.
//
// The engine's contract is strict — a parallel solve must be *bitwise*
// identical to the sequential one at every degree, not merely equal in
// objective — so the tests here compare full result structs (vertex sets,
// densities, certificates, solver statistics) with ==/DeepEqual rather than
// tolerances. The generators are built to stress the places where that
// contract is easiest to lose: reduction order (many components of skewed
// sizes), floating-point association (weights spanning 18 orders of
// magnitude), tie-breaking (repeated integer weights) and the empty/singleton
// degenerate paths.
package partest

import (
	"math/rand"

	"github.com/dcslib/dcs/internal/graph"
)

// Degrees is the parallelism ladder the equivalence tests assert over. 1
// runs every task inline, the path each degree is compared against; 2
// exercises the minimal fork/merge; 8 exceeds the task count of the small
// fixtures so worker starvation and task claiming are on the path.
// TestMain raises GOMAXPROCS so 8 is a real degree even on small CI
// machines.
var Degrees = []int{1, 2, 8}

// RandomSigned is a G(n, p) graph with integer weights in [-wmax, wmax]
// (zero-weight draws skip the edge). Integer weights make every density sum
// exact, so a parallel result differing even in the last bit is a real
// reduction-order bug, never float noise.
func RandomSigned(rng *rand.Rand, n int, p float64, wmax int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				if w := rng.Intn(2*wmax+1) - wmax; w != 0 {
					b.AddEdge(u, v, float64(w))
				}
			}
		}
	}
	return b.Build()
}

// HostileWeights is a random signed graph whose magnitudes span from 1e-9 to
// 1e9: sums over such weights are maximally association-sensitive, so any
// parallel path that reassociates a reduction diverges from the sequential
// result almost surely.
func HostileWeights(rng *rand.Rand, n int, p float64) *graph.Graph {
	b := graph.NewBuilder(n)
	scales := []float64{1e-9, 1e-4, 1, 1e4, 1e9}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				w := (rng.Float64()*2 - 1) * scales[rng.Intn(len(scales))]
				if w != 0 {
					b.AddEdge(u, v, w)
				}
			}
		}
	}
	return b.Build()
}

// Disconnected builds a graph of `blocks` mutually disconnected random
// blobs of skewed sizes (block i has i+2 vertices), plus `isolated` extra
// degree-zero vertices, which take the lowest ids: many components, none
// dominant — the shape where the peel's per-component W(V) sums and the
// top-k masks do the most work.
func Disconnected(rng *rand.Rand, blocks, isolated int, wmax int) *graph.Graph {
	n := isolated
	starts := make([]int, blocks)
	for i := 0; i < blocks; i++ {
		starts[i] = n
		n += i + 2
	}
	b := graph.NewBuilder(n)
	for i := 0; i < blocks; i++ {
		size := i + 2
		for a := 0; a < size; a++ {
			for c := a + 1; c < size; c++ {
				if rng.Float64() < 0.7 {
					if w := rng.Intn(2*wmax+1) - wmax; w != 0 {
						b.AddEdge(starts[i]+a, starts[i]+c, float64(w))
					}
				}
			}
		}
	}
	return b.Build()
}

// PositivePair is a pair of positive-weight graphs over a shared vertex set,
// the input shape of the ratio-contrast search. overlap controls how often a
// G2 edge overlays a G1 edge; at 1.0 every G2 edge does, keeping the ratio
// search away from its +Inf degenerate case.
func PositivePair(rng *rand.Rand, n int, p, overlap float64) (g1, g2 *graph.Graph) {
	b1 := graph.NewBuilder(n)
	b2 := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() >= p {
				continue
			}
			w1 := float64(rng.Intn(9) + 1)
			b1.AddEdge(u, v, w1)
			if rng.Float64() < overlap {
				b2.AddEdge(u, v, float64(rng.Intn(9)+1))
			}
		}
	}
	return b1.Build(), b2.Build()
}

// Empty is the 0-vertex graph; Singleton has one vertex and no edges. Both
// are the degenerate paths every solver must survive at every degree.
func Empty() *graph.Graph     { return graph.NewBuilder(0).Build() }
func Singleton() *graph.Graph { return graph.NewBuilder(1).Build() }

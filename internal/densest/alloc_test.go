//go:build !race

// Allocation guards for the peel engine. The race detector instruments
// allocations, so these run only in non-race builds (`make allocs`, and the
// CI step of the same name).

package densest

import (
	"testing"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// componentsGraph is c disjoint signed 6-vertex components; the i-th has its
// weights scaled by 1+i/c, so exactly one component is densest.
func componentsGraph(c int) *graph.Graph {
	b := graph.NewBuilder(6 * c)
	for i := 0; i < c; i++ {
		s := 1 + float64(i)/float64(c)
		for u := 0; u < 6; u++ {
			for v := u + 1; v < 6; v++ {
				w := s * float64(1+(7*u+3*v)%5)
				if (u+v)%4 == 0 {
					w = -w / 2
				}
				b.AddEdge(6*i+u, 6*i+v, w)
			}
		}
	}
	return b.Build()
}

// TestGreedyAllocsFlatInComponents: a peel allocates its workspace once per
// call, never per component — 20× the components, the same allocations.
func TestGreedyAllocsFlatInComponents(t *testing.T) {
	few, many := componentsGraph(10), componentsGraph(200)
	a := testing.AllocsPerRun(20, func() { Greedy(runstate.New(nil), few) })
	b := testing.AllocsPerRun(20, func() { Greedy(runstate.New(nil), many) })
	if b > a {
		t.Fatalf("Greedy allocates %v times on 200 components, %v on 10: allocation grows with components", b, a)
	}
}

// TestPeelerReuseZeroAllocs: a warm Peeler peeling into a reused
// result buffer allocates nothing at all.
func TestPeelerReuseZeroAllocs(t *testing.T) {
	g := componentsGraph(50)
	var p Peeler
	rs := runstate.New(nil)
	S := p.Peel(rs, g, nil).S
	if a := testing.AllocsPerRun(20, func() { S = p.Peel(rs, g, S).S }); a != 0 {
		t.Fatalf("warm Peeler allocates %v times per peel, want 0", a)
	}
}

//go:build !race

// Allocation guards for the solvers: the average-degree solvers' per-solve
// workspace makes their allocation count independent of the number of
// components and of ratio-search probes, and the affinity solvers allocate a
// flat amount per initialization. The race detector instruments allocations, so
// these run only in non-race builds (`make allocs`, and the CI step of the
// same name).

package core

import (
	"runtime"
	"testing"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// allocSlack absorbs a pooled scratch buffer refilled after a GC drained
// its sync.Pool; a per-component or per-probe allocation exceeds it many
// times over.
const allocSlack = 2

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

func flatAllocs(t *testing.T, what string, small, large func()) {
	t.Helper()
	a := testing.AllocsPerRun(10, small)
	b := testing.AllocsPerRun(10, large)
	if b > a+allocSlack {
		t.Fatalf("%s: %v allocations on the larger input, %v on the smaller", what, b, a)
	}
}

func TestDCSGreedyAllocsFlatInComponents(t *testing.T) {
	few, many := componentsGraph(10), componentsGraph(200)
	flatAllocs(t, "DCSGreedy", func() { DCSGreedy(runstate.New(nil), few, 1) }, func() { DCSGreedy(runstate.New(nil), many, 1) })
}

func TestTopKAllocsFlatInComponents(t *testing.T) {
	few, many := componentsGraph(10), componentsGraph(200)
	flatAllocs(t, "TopKAverageDegree k=5",
		func() { TopKAverageDegree(runstate.New(nil), few, 5, 1) }, func() { TopKAverageDegree(runstate.New(nil), many, 5, 1) })
}

// TestRatioAllocsFlatInProbes: G1 = c·G2 makes every set's ratio exactly
// 1/c, so the search runs until its relative-width stop — about 20 probes
// for c = 1e6 and 40 for c = 1e-3 — on otherwise identical graphs. Every
// probe's GD is a positive multiple of G2, whose densest component wins
// outright; a disconnected winner would add BestComponent's allocations.
func TestRatioAllocsFlatInProbes(t *testing.T) {
	b := graph.NewBuilder(60)
	for i := 0; i < 10; i++ {
		for u := 0; u < 6; u++ {
			for v := u + 1; v < 6; v++ {
				b.AddEdge(6*i+u, 6*i+v, float64((1+i)*(1+(7*u+3*v)%5)))
			}
		}
	}
	g2 := b.Build()
	short, long := g2.Scale(1e6), g2.Scale(1e-3)
	flatAllocs(t, "MaxRatioContrast",
		func() { MaxRatioContrast(runstate.New(nil), short, g2, 1) }, func() { MaxRatioContrast(runstate.New(nil), long, g2, 1) })
}

// TestNewSEAAllocsPerInit: NewSEA's µ-pruned loop runs one initialization
// per surviving vertex, and each init allocates its own embedding and
// working set, so the solve's allocations grow with Stats.Inits — but no
// faster: a per-vertex allocation inside an init raises the larger graph's
// allocations per init. Isolated vertices are pruned before any init, so
// padding the graph with them must leave the count flat: a per-vertex
// allocation in the per-solve setup breaks that.
func TestNewSEAAllocsPerInit(t *testing.T) {
	perInit := func(gd *graph.Graph) (float64, int) {
		inits := NewSEA(runstate.New(nil), gd).Stats.Inits
		if inits == 0 {
			t.Fatal("NewSEA ran no initialization")
		}
		return testing.AllocsPerRun(10, func() { NewSEA(runstate.New(nil), gd) }) / float64(inits), inits
	}
	few := componentsGraph(10)
	a, fewInits := perInit(few)
	b, manyInits := perInit(componentsGraph(200))
	if manyInits <= fewInits {
		t.Fatalf("NewSEA: %d inits on the larger graph, %d on the smaller", manyInits, fewInits)
	}
	if b > a+allocSlack {
		t.Fatalf("NewSEA: %.1f allocations per init on the larger graph (%d inits), %.1f on the smaller (%d inits)",
			b, manyInits, a, fewInits)
	}

	pb := graph.NewBuilder(few.N() + 2000)
	few.VisitEdges(func(u, v int, w float64) { pb.AddEdge(u, v, w) })
	padded := pb.Build()
	if inits := NewSEA(runstate.New(nil), padded).Stats.Inits; inits != fewInits {
		t.Fatalf("NewSEA: %d inits with isolated vertices added, %d without", inits, fewInits)
	}
	flatAllocs(t, "NewSEA with 2000 isolated vertices",
		func() { NewSEA(runstate.New(nil), few) }, func() { NewSEA(runstate.New(nil), padded) })
}

// TestCollectCliquesAllocsPerInit: the multi-initialization drivers run one
// initialization per vertex of GD+, so their allocations grow with the
// vertex count — but no faster, at every degree: a per-vertex allocation
// inside an init, or a per-init one in the worker pool beyond the forked run
// state, raises the larger graph's allocations per init. At degree 1 the
// count per init also stays at or below maxAllocsPerInit.
func TestCollectCliquesAllocsPerInit(t *testing.T) {
	for _, workers := range []int{1, 2} {
		opt := GAOptions{Parallelism: workers}
		for _, d := range []struct {
			name  string
			solve func(gd *graph.Graph)
		}{
			{"CollectCliques", func(gd *graph.Graph) { CollectCliques(runstate.New(nil), gd, opt) }},
			{"SEACDRefineFull", func(gd *graph.Graph) { SEACDRefineFull(runstate.New(nil), gd, opt) }},
		} {
			perInit := func(gd *graph.Graph) float64 {
				inits := SEACDRefineFull(runstate.New(nil), gd, opt).Stats.Inits
				return allocsPerRun(5, func() { d.solve(gd) }) / float64(inits)
			}
			a, b := perInit(componentsGraph(10)), perInit(componentsGraph(200))
			if b > a+allocSlack {
				t.Errorf("%s at degree %d: %.1f allocations per init on 200 components, %.1f on 10", d.name, workers, b, a)
			}
			if workers == 1 && a > maxAllocsPerInit {
				t.Errorf("%s at degree 1: %.1f allocations per init, want at most %d", d.name, a, maxAllocsPerInit)
			}
		}
	}
}

// maxAllocsPerInit caps a degree-1 initialization of CollectCliques and
// SEACDRefineFull: 28.8 and 25.4 allocations per init on componentsGraph(10)
// when the guard was added, rounded up.
const maxAllocsPerInit = 29

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin, so a
// parallel solve really runs its workers: the average number of heap
// allocations per call of f over runs calls, after one warm-up call.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

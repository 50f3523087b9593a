//go:build !race

// Allocation guard for the incremental watch engine: a delta tick mines the
// delta's neighborhood, not the graph, so its allocation count must not
// grow with the number of vertices. The race detector instruments
// allocations, so this runs only in non-race builds (`make allocs`, and the
// CI step of the same name).

package evolve

import (
	"context"
	"testing"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
)

// tickAllocSlack absorbs the few allocations by which region solves of
// different shapes differ (the region's size and edge count vary with the
// graph); an allocation per graph vertex exceeds it many times over.
const tickAllocSlack = 16

// incrementalTickAllocs streams 4-edge churn deltas over the CoauthorPair
// G2 network of n vertices and returns the allocations of one incremental
// ObserveDeltaCtx tick. The warm-up runs past the stream's one verdict
// flip, whose drift rule forces a scratch tick, so every measured tick is
// incremental; the tracker's stats confirm it.
func incrementalTickAllocs(t *testing.T, n int) float64 {
	t.Helper()
	const runs = 10
	ctx := context.Background()
	base := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 7, N: n}).G2
	tr, err := New(n, Config{Lambda: 0.3, MinDensity: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ObserveCtx(ctx, base); err != nil {
		t.Fatal(err)
	}
	next := churnStream(11, base, 4, false)
	for i := 0; i < 12; i++ {
		if _, err := tr.ObserveDeltaCtx(ctx, next()); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun makes one untimed warm-up call before the timed runs.
	deltas := make([][]graph.Edge, runs+1)
	for i := range deltas {
		deltas[i] = next()
	}
	before := tr.Stats()
	tick := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := tr.ObserveDeltaCtx(ctx, deltas[tick]); err != nil {
			t.Fatal(err)
		}
		tick++
	})
	after := tr.Stats()
	if inc, scratch := after.IncrementalTicks-before.IncrementalTicks, after.ScratchTicks-before.ScratchTicks; inc != runs+1 || scratch != 0 {
		t.Fatalf("n=%d: measured %d incremental and %d scratch ticks, want %d incremental", n, inc, scratch, runs+1)
	}
	return allocs
}

func TestIncrementalTickAllocsFlatInN(t *testing.T) {
	small := incrementalTickAllocs(t, 500)
	for _, n := range []int{2000, 8000} {
		if a := incrementalTickAllocs(t, n); a > small+tickAllocSlack {
			t.Fatalf("incremental tick: %v allocations at n=%d, %v at n=500", a, n, small)
		}
	}
}

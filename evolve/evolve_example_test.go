package evolve_test

import (
	"context"
	"fmt"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/evolve"
)

// Example watches a stream of snapshots and flags the step where a dense
// cluster appears that history does not explain.
func Example() {
	const n = 6
	steady := func() *dcs.Graph {
		b := dcs.NewBuilder(n)
		b.AddEdge(0, 1, 1)
		b.AddEdge(1, 2, 1)
		b.AddEdge(2, 3, 1)
		return b.Build()
	}
	anomalous := func() *dcs.Graph {
		b := dcs.NewBuilder(n)
		b.AddEdge(0, 1, 1)
		b.AddEdge(1, 2, 1)
		b.AddEdge(2, 3, 1)
		// A sudden triangle among 3,4,5.
		b.AddEdge(3, 4, 5)
		b.AddEdge(4, 5, 5)
		b.AddEdge(3, 5, 5)
		return b.Build()
	}
	// MinDensity 2 also suppresses the cold-start report of the very first
	// snapshot (everything is "new" against an empty expectation).
	tr, err := evolve.New(n, evolve.Config{Lambda: 0.5, MinDensity: 2})
	if err != nil {
		panic(err)
	}
	for step := 1; step <= 4; step++ {
		g := steady()
		if step == 3 {
			g = anomalous()
		}
		rep, err := tr.ObserveCtx(context.Background(), g)
		if err != nil {
			panic(err)
		}
		fmt.Printf("step %d anomalous=%v S=%v\n", step, rep.Anomalous(), rep.S)
	}
	// Output:
	// step 1 anomalous=false S=[]
	// step 2 anomalous=false S=[]
	// step 3 anomalous=true S=[3 4 5]
	// step 4 anomalous=false S=[]
}

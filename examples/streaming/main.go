// Streaming: watch a stream of interaction snapshots and flag emerging
// communities against a drifting historical expectation, using the public
// evolve package (the Section I anomaly application, productionized).
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"math/rand"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/evolve"
)

const (
	users = 200
	steps = 12
)

func main() {
	rng := rand.New(rand.NewSource(99))

	// Steady-state interactions: a fixed random backbone with per-step noise.
	type pair struct{ u, v int }
	var backbone []pair
	for k := 0; k < 4*users; k++ {
		u, v := rng.Intn(users), rng.Intn(users)
		if u != v {
			backbone = append(backbone, pair{u, v})
		}
	}
	snapshot := func(extra func(b *dcs.Builder)) *dcs.Graph {
		b := dcs.NewBuilder(users)
		for _, p := range backbone {
			b.AddEdge(p.u, p.v, 0.5+rng.Float64())
		}
		if extra != nil {
			extra(b)
		}
		return b.Build()
	}

	// A flash-mob community appears at step 7 and persists.
	mob := []int{11, 42, 97, 150, 188}
	mobEdges := func(b *dcs.Builder) {
		for i := 0; i < len(mob); i++ {
			for j := i + 1; j < len(mob); j++ {
				b.AddEdge(mob[i], mob[j], 6+rng.Float64())
			}
		}
	}

	const warmup = 2 // everything is "new" against an empty expectation
	tr, err := evolve.New(users, evolve.Config{Lambda: 0.4, MinDensity: 4})
	if err != nil {
		panic(err)
	}
	for step := 1; step <= steps; step++ {
		var extra func(*dcs.Builder)
		if step >= 7 {
			extra = mobEdges
		}
		rep, err := tr.ObserveCtx(context.Background(), snapshot(extra))
		if err != nil {
			panic(err)
		}
		status := "steady"
		switch {
		case step <= warmup:
			status = "warming up"
		case rep.Anomalous():
			status = fmt.Sprintf("ANOMALY |S|=%d contrast=%.1f members=%v",
				len(rep.S), rep.Contrast, rep.S)
		}
		fmt.Printf("step %2d: %s\n", step, status)
	}
	fmt.Println("\nnote: the community alarms when it appears, then is absorbed")
	fmt.Println("into the expectation — persistent structure is not an anomaly.")
}

// Anomaly: detect an emerging traffic hotspot cluster against historical
// expectations (an application suggested in Section I of the paper).
//
// A grid of road sensors forms a graph; edge weights are co-congestion
// strengths. G1 holds the historical expectation, G2 today's observation with
// an unusual hotspot injected. The DCS pinpoints the anomalous cluster.
//
//	go run ./examples/anomaly
package main

import (
	"context"
	"fmt"
	"math/rand"

	dcs "github.com/dcslib/dcs"
)

const side = 20 // sensors form a side×side grid

func id(r, c int) int { return r*side + c }

func main() {
	rng := rand.New(rand.NewSource(7))
	n := side * side

	// Historical expectation: neighboring sensors co-congest with mild,
	// noisy strength; a known rush-hour corridor (row 5) is stronger.
	hist := dcs.NewBuilder(n)
	today := dcs.NewBuilder(n)
	addBoth := func(u, v int, base float64) {
		h := base * (0.8 + 0.4*rng.Float64())
		t := base * (0.8 + 0.4*rng.Float64())
		hist.AddEdge(u, v, h)
		today.AddEdge(u, v, t)
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			base := 1.0
			if r == 5 {
				base = 4.0 // known corridor: strong in BOTH graphs, not a contrast
			}
			if c+1 < side {
				addBoth(id(r, c), id(r, c+1), base)
			}
			if r+1 < side {
				addBoth(id(r, c), id(r+1, c), base)
			}
		}
	}

	// Today's anomaly: an event at rows 14-16, cols 8-10 congests a block —
	// including diagonal co-congestion the history never sees.
	for r := 14; r <= 16; r++ {
		for c := 8; c <= 10; c++ {
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					r2, c2 := r+dr, c+dc
					if (dr == 0 && dc == 0) || r2 < 14 || r2 > 16 || c2 < 8 || c2 > 10 {
						continue
					}
					if id(r, c) < id(r2, c2) {
						today.AddEdge(id(r, c), id(r2, c2), 6+2*rng.Float64())
					}
				}
			}
		}
	}

	gd := dcs.Difference(hist.Build(), today.Build())
	res := dcs.FindAverageDegreeDCSOnParCtx(context.Background(), gd, 1)
	fmt.Printf("anomalous cluster: %d sensors, congestion-contrast %.2f\n", len(res.S), res.Density)
	inBlock := 0
	for _, v := range res.S {
		r, c := v/side, v%side
		if r >= 14 && r <= 16 && c >= 8 && c <= 10 {
			inBlock++
		}
		fmt.Printf("  sensor (%d,%d)\n", r, c)
	}
	fmt.Printf("precision against the injected block: %d/%d\n", inBlock, len(res.S))

	// The rush-hour corridor must NOT be flagged: it is dense in both graphs.
	for _, v := range res.S {
		if v/side == 5 {
			fmt.Println("WARNING: corridor sensor flagged — contrast mining failed!")
		}
	}
}

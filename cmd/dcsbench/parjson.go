package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
)

// parBenchEntry is one (workload, degree) measurement of the parallelism
// sweep. Speedup is ns/op at degree 1 over ns/op at this degree, so >1 means
// the parallel engine is winning.
type parBenchEntry struct {
	Degree  int     `json:"degree"`
	N       int     `json:"n"`
	NsPerOp float64 `json:"ns_per_op"`
	Speedup float64 `json:"speedup"`
}

// parBenchResult is one workload's sweep across the tested degrees.
type parBenchResult struct {
	Name    string          `json:"name"`
	Entries []parBenchEntry `json:"entries"`
}

// parBenchReport is the -json -par document (a BENCH_par.json payload).
// GOMAXPROCS is recorded because it bounds the achievable speedup: on a
// single-CPU runner every degree collapses to interleaved execution and the
// sweep measures overhead, not scaling — compare entries only across runs
// with the same value.
type parBenchReport struct {
	Go         string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Quick      bool             `json:"quick"`
	Seed       int64            `json:"seed"`
	Degrees    []int            `json:"degrees"`
	Benchmarks []parBenchResult `json:"benchmarks"`
}

// sweepDegrees is the tested ladder 1/2/4/NumCPU, deduplicated and ordered.
func sweepDegrees() []int {
	ladder := []int{1, 2, 4, runtime.NumCPU()}
	var out []int
	for _, d := range ladder {
		dup := false
		for _, o := range out {
			if o == d {
				dup = true
			}
		}
		if !dup && (len(out) == 0 || d > out[len(out)-1]) {
			out = append(out, d)
		}
	}
	return out
}

// runParJSON runs the parallelism sweep: each solver workload at every degree
// of sweepDegrees, on the same CoauthorPair fixtures as the -json suite.
// Before timing, every workload's result at every degree is checked against
// its degree-1 result — the bitwise-determinism contract of the parallel
// engine — so a BENCH_par.json can never be emitted from a run where the
// degrees disagreed.
func runParJSON(w io.Writer, quick bool, seed int64) error {
	if seed == 0 {
		seed = 7 // bench.Core's default fixture seed
	}
	n := 2000
	cliquesN := 400
	if quick {
		n = 500
		cliquesN = 100
	}
	d := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: n})
	gd := dcs.Difference(d.G1, d.G2)
	dSmall := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: cliquesN})
	gdSmall := dcs.Difference(dSmall.G1, dSmall.G2)
	// Overlaid, so the ratio search is bounded and runs its binary search.
	ratioG1 := graph.Blend(dSmall.G1, dSmall.G2, 1, 1)

	ctx := context.Background()
	workloads := []struct {
		name string
		run  func(deg int) any
	}{
		{"ParDCSGreedy", func(deg int) any {
			return core.DCSGreedyCtx(ctx, gd, deg)
		}},
		{"ParTopK5", func(deg int) any {
			rs, _ := dcs.TopKAverageDegreeDCSOnParCtx(ctx, gd, 5, deg)
			return rs
		}},
		{"ParRatio", func(deg int) any {
			return dcs.FindMaxRatioContrastParCtx(ctx, ratioG1, dSmall.G2, deg)
		}},
		{"ParCollectCliques", func(deg int) any {
			return core.CollectCliques(gdSmall, core.GAOptions{Parallelism: deg})
		}},
	}
	degrees := sweepDegrees()

	report := parBenchReport{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Seed:       seed,
		Degrees:    degrees,
	}
	for _, wl := range workloads {
		baseline := wl.run(1)
		for _, deg := range degrees[1:] {
			if got := wl.run(deg); !reflect.DeepEqual(got, baseline) {
				return fmt.Errorf("%s: result at parallelism %d differs from sequential", wl.name, deg)
			}
		}
		result := parBenchResult{Name: wl.name}
		var base float64
		for _, deg := range degrees {
			deg := deg
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = wl.run(deg)
				}
			})
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			if deg == 1 {
				base = ns
			}
			result.Entries = append(result.Entries, parBenchEntry{
				Degree:  deg,
				N:       res.N,
				NsPerOp: ns,
				Speedup: base / ns,
			})
		}
		report.Benchmarks = append(report.Benchmarks, result)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

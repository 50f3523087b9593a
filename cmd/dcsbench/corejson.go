package main

import (
	"context"
	"encoding/json"
	"io"
	"runtime"
	"testing"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
)

// coreBenchResult is one micro-benchmark row of the -json output, mirroring
// the repository's BenchmarkCore* suite so the numbers are directly
// comparable with `go test -bench=Core`. The fixtures and loop bodies below
// must stay in sync with bench_core_test.go (which carries the matching
// keep-in-sync note); drift would silently corrupt the BENCH_*.json
// trajectory's comparability claim.
type coreBenchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"` // iterations the harness settled on
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// coreBenchReport is the top-level -json document (a BENCH_*.json payload).
type coreBenchReport struct {
	Go         string            `json:"go"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Quick      bool              `json:"quick"`
	Seed       int64             `json:"seed"`
	Benchmarks []coreBenchResult `json:"benchmarks"`
}

// runCoreJSON runs the core-substrate micro-benchmarks through
// testing.Benchmark and writes one machine-readable JSON document, so CI can
// track the repository's perf trajectory without parsing `go test -bench`
// text output. -quick shrinks the synthetic graphs ~4x; seed 0 selects the
// BenchmarkCore* suite's default (7) so the numbers stay comparable with
// `go test -bench=Core`.
func runCoreJSON(w io.Writer, quick bool, seed int64) error {
	if seed == 0 {
		seed = 7 // bench_core_test.go's fixture seed
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
	topKSeed := core.DCSGreedy(gd).S
	// Bounded ratio pair (G1 overlays G2), n=250 in both modes.
	dRatio := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: 250})
	ratioG1 := graph.Blend(dRatio.G1, dRatio.G2, 1, 1)

	benchmarks := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"CoreDifferenceBuild", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = dcs.Difference(d.G1, d.G2)
			}
		}},
		{"CorePositivePart", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = gd.PositivePart()
			}
		}},
		{"CoreWithoutVertices", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = gd.WithoutVertices(topKSeed)
			}
		}},
		{"CoreDCSGreedy", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = core.DCSGreedy(gd)
			}
		}},
		{"CoreTopK10", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = dcs.TopKAverageDegreeDCSOnParCtx(context.Background(), gd, 10, 1)
			}
		}},
		{"CoreRatioBounded", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = core.MaxRatioContrast(ratioG1, dRatio.G2)
			}
		}},
		{"CoreCollectCliques", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = core.CollectCliques(gdSmall, core.GAOptions{})
			}
		}},
	}

	report := coreBenchReport{
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Quick:  quick,
		Seed:   seed,
	}
	for _, bm := range benchmarks {
		res := testing.Benchmark(bm.fn)
		report.Benchmarks = append(report.Benchmarks, coreBenchResult{
			Name:        bm.name,
			N:           res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

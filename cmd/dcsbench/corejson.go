package main

import (
	"encoding/json"
	"io"
	"runtime"
	"testing"

	"github.com/dcslib/dcs/internal/bench"
)

// coreBenchResult is one micro-benchmark row of the -json output: one case
// of bench.Core, the table `go test -bench=Core` runs too, so the numbers
// are directly comparable.
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

// runCoreJSON runs the bench.Core table through testing.Benchmark and
// writes one machine-readable JSON document, so CI can track the
// repository's perf trajectory without parsing `go test -bench` text output.
// Rows are named Core<case>, matching BenchmarkCore's sub-benchmarks.
func runCoreJSON(w io.Writer, quick bool, seed int64) error {
	if seed == 0 {
		seed = 7 // bench.Core's default fixture seed, recorded in the report
	}
	report := coreBenchReport{
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Quick:  quick,
		Seed:   seed,
	}
	for _, c := range bench.Core(quick, seed) {
		res := testing.Benchmark(c.Run)
		report.Benchmarks = append(report.Benchmarks, coreBenchResult{
			Name:        "Core" + c.Name,
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

// Core-substrate benchmarks: the graph-layer hot paths — difference-graph
// construction, derived views, greedy peeling, top-k mining, the bounded
// ratio search and the clique-collection pipeline — over the synthetic
// DBLP-like snapshot pair from internal/datagen. Unlike bench_test.go (one
// benchmark per paper table) these isolate single operations. The table
// lives in internal/bench (bench.Core), which `dcsbench -json` runs too.
//
//	go test -bench=Core -benchmem
package dcs_test

import (
	"testing"

	"github.com/dcslib/dcs/internal/bench"
)

func BenchmarkCore(b *testing.B) {
	for _, c := range bench.Core(false, 0) {
		b.Run(c.Name, c.Run)
	}
}

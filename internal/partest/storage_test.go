package partest

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/dcslib/dcs/internal/dataio"
	"github.com/dcslib/dcs/internal/graph"
)

// Graph storage is shared: a dcsd snapshot or difference graph serves every
// request that reads it, and Graph.CSR hands out the live arrays with no
// copy (Neighbors copies). Nothing but the type's documentation stops a
// solver from writing through them, so the equivalence suite checks it at
// run time, on two layouts of every fixture:
//
//   - on the heap, each graph's adjacency is recorded bit for bit before
//     every solver call and compared after it;
//   - through dataio.OpenMapped, the same suite runs again over .dcsg v2
//     copies, whose ids and weights alias the read-only mapping, so a stray
//     write faults and crashes the run; re-encoding every graph afterwards
//     must give the file's bytes.

// adjacency records every row entry of g in row order as (u, v, weight
// bits) triples: a write into any row, through any accessor, changes it.
func adjacency(g *graph.Graph) []uint64 {
	var rows []uint64
	for u := 0; u < g.N(); u++ {
		g.VisitNeighbors(u, func(v int, w float64) {
			rows = append(rows, uint64(u), uint64(v), math.Float64bits(w))
		})
	}
	return rows
}

// unchanged records gs and returns a check to call after each solver call:
// it fails t, naming the call, if any graph's adjacency differs from its
// record.
func unchanged(t *testing.T, gs ...*graph.Graph) func(format string, args ...any) {
	t.Helper()
	before := make([][]uint64, len(gs))
	for i, g := range gs {
		before[i] = adjacency(g)
	}
	return func(format string, args ...any) {
		t.Helper()
		for i, g := range gs {
			if !slices.Equal(adjacency(g), before[i]) {
				t.Fatalf("%s wrote into the storage of graph %d", fmt.Sprintf(format, args...), i)
			}
		}
	}
}

// forEachLayout runs body once per storage layout, as subtests "heap" and
// "mapped". load turns a fixture built on the heap
// into the graph the subtest solves on.
func forEachLayout(t *testing.T, body func(t *testing.T, load func(*graph.Graph) *graph.Graph)) {
	t.Run("heap", func(t *testing.T) {
		body(t, func(g *graph.Graph) *graph.Graph { return g })
	})
	t.Run("mapped", func(t *testing.T) { body(t, mappedLoader(t)) })
}

// mappedLoader returns a load function that writes each fixture as a .dcsg
// v2 file under a temporary directory and opens it with dataio.OpenMapped.
// When t finishes, every graph is re-encoded and compared with its file,
// then closed.
func mappedLoader(t *testing.T) func(*graph.Graph) *graph.Graph {
	dir := t.TempDir()
	files := 0
	return func(g *graph.Graph) *graph.Graph {
		t.Helper()
		files++
		path := filepath.Join(dir, fmt.Sprintf("g%d.dcsg", files))
		if err := dataio.WriteBinaryV2File(path, g); err != nil {
			t.Fatal(err)
		}
		m, err := dataio.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		// Where the sections can alias the mapping, make sure they do: a
		// heap fallback would turn the faulting guard into a no-op.
		if aliasesMapping() && g.M() > 0 {
			if m.MappedBytes() == 0 || m.ShadowBytes() != 0 {
				t.Fatalf("%s: mapped %d bytes, shadow %d: want the sections served from the mapping",
					path, m.MappedBytes(), m.ShadowBytes())
			}
		}
		t.Cleanup(func() {
			defer m.Close()
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := dataio.WriteBinaryV2(&got, m.Graph()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s: re-encoding the graph after the suite differs from the file", path)
			}
		})
		return m.Graph()
	}
}

// aliasesMapping reports whether OpenMapped serves the sections straight from a read-only mapping here: a unix mmap on a 64-bit
// little-endian host.
func aliasesMapping() bool {
	return runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64")
}

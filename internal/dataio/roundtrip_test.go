package dataio

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/graph"
)

// Property-based write→read round trips across every format the package
// speaks. "Identical" means n, m and bitwise edge weights — %g text output
// uses shortest-round-trip formatting and the binary codec stores raw
// float64 bits, so nothing may drift, not even by one ulp. Graphs come from
// randomGraph (binary_test.go), whose weights include subnormals, huge
// magnitudes and full-mantissa values.

// adjacency records every row entry of g in row order as (u, v, weight
// bits) triples. Writers read the graph's live storage (Graph.CSR), so a
// write through it changes the record.
func adjacency(g *graph.Graph) []uint64 {
	var rows []uint64
	for u := 0; u < g.N(); u++ {
		g.VisitNeighbors(u, func(v int, w float64) {
			rows = append(rows, uint64(u), uint64(v), math.Float64bits(w))
		})
	}
	return rows
}

// identicalRoundTrip writes g with write, reads it back with read, and
// checks that writing left g unchanged and that the result is the same
// graph bit for bit.
func identicalRoundTrip(t *testing.T, seed int64, write func(*bytes.Buffer, *graph.Graph) error, read func(*bytes.Buffer) (*graph.Graph, error)) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randomGraph(rng, 1+rng.Intn(60))
	before := adjacency(g)
	var buf bytes.Buffer
	if err := write(&buf, g); err != nil {
		t.Logf("seed %d: write: %v", seed, err)
		return false
	}
	if !slices.Equal(adjacency(g), before) {
		t.Logf("seed %d: writing changed the source graph", seed)
		return false
	}
	g2, err := read(&buf)
	if err != nil {
		t.Logf("seed %d: read: %v", seed, err)
		return false
	}
	if !sameGraph(g, g2) {
		t.Logf("seed %d: round trip changed the graph", seed)
		return false
	}
	return true
}

func TestRoundTripPropertyTSV(t *testing.T) {
	f := func(seed int64) bool {
		return identicalRoundTrip(t, seed,
			func(b *bytes.Buffer, g *graph.Graph) error { return WriteGraph(b, g) },
			func(b *bytes.Buffer) (*graph.Graph, error) { return ReadGraph(b) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripPropertyBinary(t *testing.T) {
	f := func(seed int64) bool {
		return identicalRoundTrip(t, seed,
			func(b *bytes.Buffer, g *graph.Graph) error {
				if err := WriteBinaryV2(b, g); err != nil {
					return err
				}
				if v := binaryVersionOf(b.Bytes()); v != binaryVersion2 {
					return fmt.Errorf("wrote version %d, want %d", v, binaryVersion2)
				}
				return nil
			},
			func(b *bytes.Buffer) (*graph.Graph, error) { return ReadBinary(b) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripPropertyMatrixMarket(t *testing.T) {
	// WriteMatrixMarket emits a symmetric real matrix (one triangle), so the
	// read side takes the no-averaging path and the graph must come back
	// identical.
	f := func(seed int64) bool {
		return identicalRoundTrip(t, seed,
			func(b *bytes.Buffer, g *graph.Graph) error { return WriteMatrixMarket(b, g) },
			func(b *bytes.Buffer) (*graph.Graph, error) { return ReadMatrixMarket(b) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripPropertySNAP(t *testing.T) {
	// SNAP has no vertex-count header, so isolated vertices vanish and ids
	// are remapped in first-appearance order. Compare through the returned
	// orig table: every edge must survive with a bitwise-equal weight, and
	// the read graph must have exactly the mentioned vertices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 1+rng.Intn(60))
		var buf bytes.Buffer
		if err := WriteSNAP(&buf, g); err != nil {
			t.Logf("seed %d: write: %v", seed, err)
			return false
		}
		g2, orig, err := ReadSNAP(&buf)
		if err != nil {
			t.Logf("seed %d: read: %v", seed, err)
			return false
		}
		mentioned := 0
		for u := 0; u < g.N(); u++ {
			if g.OutDegree(u) > 0 {
				mentioned++
			}
		}
		if g2.N() != mentioned || len(orig) != mentioned || g2.M() != g.M() {
			t.Logf("seed %d: n=%d (mentioned %d) m=%d (want %d)", seed, g2.N(), mentioned, g2.M(), g.M())
			return false
		}
		ok := true
		g2.VisitEdges(func(u, v int, w float64) {
			ou, ov := int(orig[u]), int(orig[v])
			if math.Float64bits(g.Weight(ou, ov)) != math.Float64bits(w) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

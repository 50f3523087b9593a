//go:build !race

// Allocation guard for the one-pass edge-list decoder: reading and parsing
// an upload allocates the body buffer, the name and one pre-sized edge
// slice, however many edges it holds. The race detector instruments
// allocations, so this runs only in non-race builds (`make allocs`, and the
// CI step of the same name).

package serve

import (
	"bytes"
	"testing"
)

// decodeAllocGrowth is the measured number of allocations a 5,000-edge
// snapshot body adds over a 50-edge one: none, since the buffer is sized
// from Content-Length and the edge slice from the body before parsing.
const decodeAllocGrowth = 0

func decodeAllocs(t *testing.T, edges int) float64 {
	t.Helper()
	body := snapshotBody(1, 2000, edges)
	return testing.AllocsPerRun(20, func() {
		buf, err := readBody(bytes.NewReader(body), int64(len(body)), 32<<20)
		var req SnapshotRequest
		if err != nil || !decodeFast(buf, &req) || len(req.Edges) != edges {
			t.Fatal("snapshot body fell back to encoding/json")
		}
	})
}

func TestDecodeBodyAllocs(t *testing.T) {
	small, large := decodeAllocs(t, 50), decodeAllocs(t, 5000)
	t.Logf("allocations: %v at 50 edges, %v at 5,000", small, large)
	if large-small > decodeAllocGrowth {
		t.Errorf("a 5,000-edge body allocates %v times, a 50-edge one %v: more than %d extra means allocation per edge or per growth step",
			large, small, decodeAllocGrowth)
	}
}

package dataio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/dcslib/dcs/internal/graph"
)

// randomGraph builds a random graph with signed, "awkward" float64 weights
// (subnormals, huge magnitudes, many mantissa bits) so round-trip tests
// exercise bitwise weight fidelity, not just friendly decimals.
func randomGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	type pair struct{ u, v int }
	seen := map[pair]bool{}
	for k := 0; k < 3*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[pair{u, v}] {
			continue
		}
		seen[pair{u, v}] = true
		var w float64
		switch rng.Intn(4) {
		case 0:
			w = float64(rng.Intn(19) - 9)
		case 1:
			w = (rng.Float64() - 0.5) * 1e-300
		case 2:
			w = (rng.Float64() - 0.5) * 1e300
		default:
			w = rng.NormFloat64()
		}
		if w == 0 {
			w = 1
		}
		b.AddEdge(u, v, w)
	}
	return b.Build()
}

// sameGraph reports whether two graphs agree on n, m and every edge weight
// bitwise (including the sign of zero — though built graphs never store 0).
func sameGraph(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	ok := true
	a.VisitEdges(func(u, v int, w float64) {
		if math.Float64bits(b.Weight(u, v)) != math.Float64bits(w) {
			ok = false
		}
	})
	return ok
}

// binaryVersionOf returns the format version field of an encoded file.
func binaryVersionOf(data []byte) uint16 {
	if len(data) < 6 {
		return 0
	}
	return binary.LittleEndian.Uint16(data[4:6])
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 7, 50, 301} {
		g := randomGraph(rng, n)
		before := adjacency(g)
		for _, compress := range []bool{false, true} {
			var buf bytes.Buffer
			if err := WriteBinaryV2(&buf, g, compress); err != nil {
				t.Fatalf("n=%d compress=%v: write: %v", n, compress, err)
			}
			if !slices.Equal(adjacency(g), before) {
				t.Fatalf("n=%d compress=%v: writing changed the source graph", n, compress)
			}
			if v := binaryVersionOf(buf.Bytes()); v != binaryVersion2 {
				t.Fatalf("n=%d compress=%v: wrote version %d", n, compress, v)
			}
			g2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("n=%d compress=%v: read: %v", n, compress, err)
			}
			if !sameGraph(g, g2) {
				t.Fatalf("n=%d compress=%v: round trip changed the graph", n, compress)
			}
		}
	}
}

func TestBinaryRoundTripView(t *testing.T) {
	// Views must serialize as their visible (compacted) graph.
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, fixtureView(), false); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 5 || g2.M() != 1 || g2.Weight(0, 1) != 2 {
		t.Fatalf("view round trip: n=%d m=%d w01=%v", g2.N(), g2.M(), g2.Weight(0, 1))
	}
}

// The v1 writer is gone; these version-1 files were written by it and are
// kept so the read-only v1 path stays covered. Each fixture's source graph
// is rebuilt below for comparison.
const (
	fixtureV1Empty  = "testdata/v1_empty.dcsg"  // graph.NewBuilder(0).Build()
	fixtureV1View   = "testdata/v1_view.dcsg"   // fixtureView()
	fixtureV1Random = "testdata/v1_random.dcsg" // randomGraph(seed 3, n=40)
	// randomGraph(seed 3, n=301): 1778 entries, so the reader's entry loop
	// runs over several v1ChunkBytes chunks.
	fixtureV1Large = "testdata/v1_large.dcsg"
)

// v1ChunkBytes is the size of the chunks readBinaryV1 decodes offsets and
// entries in.
const v1ChunkBytes = 24 * 256

// fixtureView is a WithoutVertices + PositivePart view of a 5-vertex
// graph; it encodes as its compacted visible graph (n=5, one edge 0–1).
func fixtureView() *graph.Graph {
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: -3}, {U: 3, V: 4, W: 1}})
	return g.WithoutVertices([]int{4}).PositivePart()
}

// v1Fixtures maps each v1 fixture to the graph it encodes.
func v1Fixtures() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		fixtureV1Empty:  graph.NewBuilder(0).Build(),
		fixtureV1View:   fixtureView(),
		fixtureV1Random: randomGraph(rand.New(rand.NewSource(3)), 40),
		fixtureV1Large:  randomGraph(rand.New(rand.NewSource(3)), 301),
	}
}

// readFixture returns a fixture's bytes, failing the test if it is not a
// version-1 file.
func readFixture(tb testing.TB, path string) []byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	if v := binaryVersionOf(data); v != binaryVersion1 {
		tb.Fatalf("%s: version %d, want %d", path, v, binaryVersion1)
	}
	return data
}

// TestBinaryV1Fixtures is the v1 compatibility contract: every fixture
// reads back as its source graph bitwise, through ReadBinary and through
// OpenMapped's heap fallback, passes VerifyGraphFile, and re-encodes to v2
// unchanged.
func TestBinaryV1Fixtures(t *testing.T) {
	for path, want := range v1Fixtures() {
		g, err := ReadBinary(bytes.NewReader(readFixture(t, path)))
		if err != nil {
			t.Fatalf("%s: ReadBinary: %v", path, err)
		}
		if !sameGraph(g, want) {
			t.Fatalf("%s: decoded graph differs from its source", path)
		}
		m, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("%s: OpenMapped: %v", path, err)
		}
		if m.MappedBytes() != 0 {
			t.Fatalf("%s: v1 fallback must not report a mapping", path)
		}
		if !sameGraph(m.Graph(), g) {
			t.Fatalf("%s: OpenMapped and ReadBinary disagree", path)
		}
		m.Close()
		if err := VerifyGraphFile(path); err != nil {
			t.Fatalf("%s: VerifyGraphFile: %v", path, err)
		}
		for _, compress := range []bool{false, true} {
			var buf bytes.Buffer
			if err := WriteBinaryV2(&buf, g, compress); err != nil {
				t.Fatal(err)
			}
			g2, err := ReadBinary(&buf)
			if err != nil {
				t.Fatalf("%s: v2 re-encode (compress=%v): %v", path, compress, err)
			}
			if !sameGraph(g2, want) {
				t.Fatalf("%s: v1→v2 (compress=%v) changed the graph", path, compress)
			}
		}
	}
}

func TestBinaryTruncation(t *testing.T) {
	for _, path := range []string{fixtureV1Random, fixtureV1Large} {
		full := readFixture(t, path)
		n := int(binary.LittleEndian.Uint64(full[8:16]))
		entries := 24 + 8*(n+1) // first byte of the entries section
		// Every proper prefix must be rejected; step through representative
		// cuts in each region (header, offsets, entries, checksum), including
		// both sides of every chunk boundary in the entries section.
		cuts := []int{0, 3, 8, 23, 24, 30, entries - 1, entries, entries + 5, len(full) / 2, len(full) - 5, len(full) - 1}
		for c := entries + v1ChunkBytes; c < len(full)-4; c += v1ChunkBytes {
			cuts = append(cuts, c-1, c, c+1)
		}
		for _, cut := range cuts {
			if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
				t.Errorf("%s: truncation at %d of %d accepted", path, cut, len(full))
			}
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	data := readFixture(t, fixtureV1Random)
	data[0] = 'X'
	_, err := ReadBinary(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: got %v", err)
	}
}

func TestBinaryChecksumMismatch(t *testing.T) {
	for _, path := range []string{fixtureV1Random, fixtureV1Large} {
		data := readFixture(t, path)
		// Flip one payload bit near the end (in the last entries chunk of the
		// large fixture): the checksum, not a structural check, must be what
		// rejects it (weights are opaque bits).
		data[len(data)-20] ^= 0x01
		_, err := ReadBinary(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("%s: bit flip accepted", path)
		}
		if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("%s: unexpected error for bit flip: %v", path, err)
		}
	}
}

func TestBinaryVersionRejected(t *testing.T) {
	data := readFixture(t, fixtureV1Random)
	data[4] = 99
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: got %v", err)
	}
}

func TestBinaryFileAndAutoDispatch(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(rand.New(rand.NewSource(8)), 25)

	binPath := filepath.Join(dir, "g"+BinaryExt)
	if err := WriteBinaryV2File(binPath, g, false); err != nil {
		t.Fatal(err)
	}
	head, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(head[:4]) != binaryMagic || binaryVersionOf(head) != binaryVersion2 {
		t.Fatalf(".dcsg write produced %q version %d, not binary v2", head[:4], binaryVersionOf(head))
	}
	g2, err := ReadGraphFileAuto(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("binary auto round trip changed the graph")
	}

	tsvPath := filepath.Join(dir, "g.tsv")
	if err := WriteGraphFile(tsvPath, g); err != nil {
		t.Fatal(err)
	}
	g3, err := ReadGraphFileAuto(tsvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g3) {
		t.Fatal("tsv auto round trip changed the graph")
	}

	var mtx bytes.Buffer
	if err := WriteMatrixMarket(&mtx, g); err != nil {
		t.Fatal(err)
	}
	mtxPath := filepath.Join(dir, "g.MTX") // extension match is case-insensitive
	if err := os.WriteFile(mtxPath, mtx.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	g4, err := ReadGraphFileAuto(mtxPath)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g4) {
		t.Fatal("MatrixMarket auto round trip changed the graph")
	}
}

func BenchmarkReadBinary(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(9)), 5000)
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g, false); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadTSV(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(9)), 5000)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadGraph(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenMappedV2(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(9)), 5000)
	for _, compress := range []bool{false, true} {
		b.Run(fmt.Sprintf("compress=%v", compress), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "g"+BinaryExt)
			if err := WriteBinaryV2File(path, g, compress); err != nil {
				b.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(fi.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := OpenMapped(path)
				if err != nil {
					b.Fatal(err)
				}
				m.Close()
			}
		})
	}
}

package dataio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
		var buf bytes.Buffer
		if err := WriteBinaryV2(&buf, g); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		if !slices.Equal(adjacency(g), before) {
			t.Fatalf("n=%d: writing changed the source graph", n)
		}
		if v := binaryVersionOf(buf.Bytes()); v != binaryVersion2 {
			t.Fatalf("n=%d: wrote version %d", n, v)
		}
		g2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: read: %v", n, err)
		}
		if !sameGraph(g, g2) {
			t.Fatalf("n=%d: round trip changed the graph", n)
		}
	}
}

func TestBinaryRoundTripView(t *testing.T) {
	// Views must serialize as their visible (compacted) graph.
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, fixtureView()); err != nil {
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

// fixtureView is a WithoutVertices view of the positive part of a 5-vertex
// graph; it encodes as its compacted visible graph (n=5, one edge 0–1).
func fixtureView() *graph.Graph {
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: -3}, {U: 3, V: 4, W: 1}})
	return g.PositivePart().WithoutVertices([]int{4})
}

// encodeRandom returns the v2 encoding of randomGraph(seed 3, n): n=40 is
// small, n=301 has 1778 entries, so its ids and weights sections each
// span several pages.
func encodeRandom(t *testing.T, n int) []byte {
	return encodeV2(t, randomGraph(rand.New(rand.NewSource(3)), n))
}

// readerRejects fails t unless ReadBinary, OpenMapped and VerifyGraphFile
// all reject data with an error containing want.
func readerRejects(t *testing.T, label string, data []byte, want string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad"+BinaryExt)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errRead := ReadBinary(bytes.NewReader(data))
	m, errMap := OpenMapped(path)
	if errMap == nil {
		m.Close()
	}
	errVerify := VerifyGraphFile(path)
	for name, err := range map[string]error{"ReadBinary": errRead, "OpenMapped": errMap, "VerifyGraphFile": errVerify} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %s returned %v, want an error containing %q", label, name, err, want)
		}
	}
}

// TestBinaryRejectsRetiredEncodings covers the encodings earlier releases
// wrote and this one no longer reads — a version-1 file and v2 files with
// the varint-delta or palette flag set (header checksum valid) — and an
// unknown version: every reader must refuse each with a clear error.
func TestBinaryRejectsRetiredEncodings(t *testing.T) {
	for _, n := range []int{40, 301} {
		raw := encodeRandom(t, n)
		v1 := encodeV1(t, randomGraph(rand.New(rand.NewSource(3)), n))
		readerRejects(t, fmt.Sprintf("n=%d version 1", n), v1, "version 1")
		for _, flags := range []uint16{1, 2, 3, 1 << 7} {
			d := append([]byte{}, raw...)
			binary.LittleEndian.PutUint16(d[6:8], flags)
			rechecksum(d)
			readerRejects(t, fmt.Sprintf("n=%d flags %#x", n, flags), d, "compressed v2 files are no longer read")
		}
		future := append([]byte{}, raw...)
		binary.LittleEndian.PutUint16(future[4:6], 99)
		readerRejects(t, fmt.Sprintf("n=%d version 99", n), future, "version 99")
	}
}

// encodeV1 writes g in the retired version-1 layout: a 24-byte header
// (magic, version 1, reserved, n, e), the offsets as uint64s, each entry as
// a uint32 id and float64 weight bits, and a trailing CRC32-C of all
// preceding bytes.
func encodeV1(tb testing.TB, g *graph.Graph) []byte {
	tb.Helper()
	off, ids, ws, _ := g.CSR()
	b := binary.LittleEndian.AppendUint16([]byte(binaryMagic), 1)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(g.N()))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ids)))
	for _, o := range off {
		b = binary.LittleEndian.AppendUint64(b, uint64(o))
	}
	for i, v := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ws[i]))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

func TestBinaryTruncation(t *testing.T) {
	for _, n := range []int{40, 301} {
		full := encodeRandom(t, n)
		h, err := parseV2Header(full)
		if err != nil {
			t.Fatal(err)
		}
		// Every proper prefix must be rejected; step through representative
		// cuts in each region (header fields, padding, each section and its
		// boundaries).
		cuts := []int64{0, 3, 6, 8, 23, 24, v2CRCEnd, v2HeaderLen, v2Page - 1, int64(len(full)) / 2, int64(len(full)) - 5, int64(len(full)) - 1}
		for _, s := range h.sect {
			cuts = append(cuts, s.off-1, s.off, s.off+1, s.off+s.len/2)
		}
		for _, cut := range cuts {
			if cut < 0 || cut >= int64(len(full)) {
				continue
			}
			if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
				t.Errorf("n=%d: truncation at %d of %d accepted", n, cut, len(full))
			}
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	data := encodeRandom(t, 40)
	data[0] = 'X'
	_, err := ReadBinary(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: got %v", err)
	}
}

func TestBinaryChecksumMismatch(t *testing.T) {
	for _, n := range []int{40, 301} {
		data := encodeRandom(t, n)
		// Flip one payload bit near the end (in the last page of the weights
		// section): the checksum, not a structural check, must be what
		// rejects it (weights are opaque bits).
		data[len(data)-20] ^= 0x01
		_, err := ReadBinary(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("n=%d: bit flip accepted", n)
		}
		if !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("n=%d: unexpected error for bit flip: %v", n, err)
		}
	}
}

func TestBinaryVersionRejected(t *testing.T) {
	data := encodeRandom(t, 40)
	data[4] = 99
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: got %v", err)
	}
}

func TestBinaryFileAndAutoDispatch(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(rand.New(rand.NewSource(8)), 25)

	binPath := filepath.Join(dir, "g"+BinaryExt)
	if err := WriteBinaryV2File(binPath, g); err != nil {
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
	if err := WriteBinaryV2(&buf, g); err != nil {
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
	path := filepath.Join(b.TempDir(), "g"+BinaryExt)
	if err := WriteBinaryV2File(path, g); err != nil {
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
}

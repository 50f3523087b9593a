package dataio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/dcslib/dcs/internal/graph"
)

// randomBinGraph builds a random graph; with smallInts set, weights are
// drawn from the few values ±1..±7, otherwise from a wide Gaussian.
func randomBinGraph(rng *rand.Rand, n int, p float64, smallInts bool) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() >= p {
				continue
			}
			var w float64
			if smallInts {
				w = float64(rng.Intn(7) + 1)
				if rng.Intn(2) == 0 {
					w = -w
				}
			} else {
				w = rng.NormFloat64() * 100
				if w == 0 {
					w = 1
				}
			}
			b.AddEdge(u, v, w)
		}
	}
	return b.Build()
}

// sameBinGraph asserts bitwise equality of two graphs.
func sameBinGraph(t *testing.T, label string, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.TotalWeight() != want.TotalWeight() {
		t.Fatalf("%s: got n=%d m=%d tw=%v, want n=%d m=%d tw=%v",
			label, got.N(), got.M(), got.TotalWeight(), want.N(), want.M(), want.TotalWeight())
	}
	mismatch := false
	want.VisitEdges(func(u, v int, w float64) {
		if got.Weight(u, v) != w {
			mismatch = true
		}
	})
	if mismatch {
		t.Fatalf("%s: edge weights differ bitwise", label)
	}
}

// encodeV2 returns the v2 encoding of g as bytes.
func encodeV2(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g); err != nil {
		t.Fatalf("WriteBinaryV2: %v", err)
	}
	return buf.Bytes()
}

// misaligned returns a copy of data starting one byte past an aligned
// allocation, so alias refuses every section and decodeV2 takes the
// decode-by-copy path that 32-bit and big-endian hosts run.
func misaligned(data []byte) []byte {
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	return buf[1:]
}

// TestBinaryV2RoundTrip is the v2↔heap property: every reader — streaming
// heap, mapped, and decode by copy — reproduces the graph bitwise, with
// small-integer or wide float weights.
func TestBinaryV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	dir := t.TempDir()
	for _, n := range []int{0, 1, 2, 30, 150} {
		for _, smallInts := range []bool{true, false} {
			g := randomBinGraph(rng, n, 0.2, smallInts)

			data := encodeV2(t, g)
			got, err := ReadBinary(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ReadBinary(v2): %v", err)
			}
			sameBinGraph(t, "v2 heap", got, g)

			// File + mapped round trip.
			path := filepath.Join(dir, "g.dcsg")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := OpenMapped(path)
			if err != nil {
				t.Fatalf("OpenMapped(v2): %v", err)
			}
			// Where the platform can alias, the sections are served from
			// the mapping, with nothing decoded to the heap.
			if runtime.GOOS == "linux" && canAliasHost() && g.M() > 0 &&
				(m.MappedBytes() == 0 || m.ShadowBytes() != 0) {
				t.Fatalf("mapped %d bytes, shadow %d: want the sections served from the mapping",
					m.MappedBytes(), m.ShadowBytes())
			}
			sameBinGraph(t, "v2 mapped", m.Graph(), g)
			if err := m.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}

			// Decode by copy: every section is decoded to the heap and
			// accounted as shadow, 8(n+1) offset bytes plus 12 per entry.
			copied, shadow, err := decodeV2(misaligned(data), nil)
			if err != nil {
				t.Fatalf("decodeV2(misaligned): %v", err)
			}
			sameBinGraph(t, "v2 decode by copy", copied, g)
			if want := int64(8*(n+1) + 12*2*g.M()); shadow != want {
				t.Fatalf("n=%d m=%d: decode by copy reported %d shadow bytes, want %d", n, g.M(), shadow, want)
			}

			// The streaming file writer must produce identical bytes to
			// the in-memory writer (deterministic encoding).
			if err := WriteBinaryV2File(path, g); err != nil {
				t.Fatalf("WriteBinaryV2File: %v", err)
			}
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, data) {
				t.Fatal("file writer and memory writer disagree")
			}
			if err := VerifyGraphFile(path); err != nil {
				t.Fatalf("VerifyGraphFile(v2): %v", err)
			}
		}
	}
}

// forgeID returns a copy of data with the first neighbor id set to id and
// every CRC recomputed, so only the structural checks stand in the way.
func forgeID(data []byte, id uint32) []byte {
	d := append([]byte{}, data...)
	h, err := parseV2Header(d)
	if err != nil || h.e == 0 {
		return nil
	}
	s := h.sect[1]
	binary.LittleEndian.PutUint32(d[s.off:], id)
	binary.LittleEndian.PutUint32(d[72+4:], crc32.Checksum(d[s.off:s.off+s.len], crcTable))
	rechecksum(d)
	return d
}

// TestBinaryV2CopyPathRejectsBadIDs forges a neighbor id ≥ n with valid
// CRCs: the decode-by-copy path must reject it itself, before
// graph.FromCSR, and so must every reader of the file.
func TestBinaryV2CopyPathRejectsBadIDs(t *testing.T) {
	g := randomBinGraph(rand.New(rand.NewSource(85)), 30, 0.2, false)
	data := forgeID(encodeV2(t, g), uint32(g.N()))
	if data == nil {
		t.Fatal("fixture has no edges")
	}
	if _, _, err := decodeV2(misaligned(data), nil); err == nil || !strings.Contains(err.Error(), "dataio: neighbor id") {
		t.Fatalf("decode by copy of an id ≥ n: got %v, want the ids decoder's range error", err)
	}
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("ReadBinary accepted an id ≥ n")
	}
}

// rechecksum recomputes the header CRC after a test mutated header bytes,
// so the corruption under test is reached instead of masked by the header
// checksum.
func rechecksum(data []byte) {
	binary.LittleEndian.PutUint32(data[v2CRCEnd:v2HeaderLen], crc32.Checksum(data[:v2CRCEnd], crcTable))
}

// TestBinaryV2CorruptInputs is the hostile-input suite: truncations at and
// around every section boundary, checksum damage in every region,
// misaligned and reordered section offsets, and length-rule violations.
// Every case must produce an error from ReadBinary, OpenMapped and
// VerifyGraphFile.
func TestBinaryV2CorruptInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := randomBinGraph(rng, 60, 0.2, true)
	data := encodeV2(t, g)
	h, err := parseV2Header(data)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{}
	// Truncation at every section boundary, and one byte into and
	// before each boundary.
	for i, s := range h.sect {
		for _, cut := range []int64{s.off, s.off - 1, s.off + 1, s.off + s.len - 1} {
			if cut >= 0 && cut < int64(len(data)) {
				cases[nameOf("truncated at section", i, cut)] = data[:cut]
			}
		}
	}
	cases["empty"] = nil
	cases["magic only"] = data[:4]
	cases["header only"] = data[:v2Page]
	cases["one extra byte"] = append(append([]byte{}, data...), 0)

	// Bit damage inside each checksummed region.
	for i, s := range h.sect {
		if s.len == 0 {
			continue
		}
		d := append([]byte{}, data...)
		d[s.off+s.len/2] ^= 0x40
		cases[nameOf("flipped bit in section", i, s.off+s.len/2)] = d
	}
	hdrFlip := append([]byte{}, data...)
	hdrFlip[10] ^= 0x01
	cases["flipped header byte"] = hdrFlip

	// Misaligned section offset (header re-checksummed so the header
	// CRC is valid and the layout check itself must catch it).
	misal := append([]byte{}, data...)
	binary.LittleEndian.PutUint64(misal[24+16:], uint64(h.sect[1].off)+8)
	rechecksum(misal)
	cases["misaligned section offset"] = misal

	// Reordered sections: section 2 placed before section 1.
	reord := append([]byte{}, data...)
	binary.LittleEndian.PutUint64(reord[24+32:], uint64(v2Page))
	rechecksum(reord)
	cases["reordered sections"] = reord

	// Oversized entry count with a valid header CRC.
	bigE := append([]byte{}, data...)
	binary.LittleEndian.PutUint64(bigE[16:24], uint64(v2MaxE)+2)
	rechecksum(bigE)
	cases["implausible entry count"] = bigE

	// Non-zero reserved field.
	flags := append([]byte{}, data...)
	binary.LittleEndian.PutUint16(flags[6:8], 1<<7)
	rechecksum(flags)
	cases["non-zero reserved field"] = flags

	// VerifyGraphFile only vouches for checksums and geometry; payload-level
	// corruption with a matching CRC is caught at decode. All cases here
	// damage checksummed bytes or the geometry, so verification must fail
	// too.
	for name, d := range cases {
		readerRejects(t, name, d, "")
	}
}

func nameOf(prefix string, i int, at int64) string {
	return prefix + " " + string(rune('0'+i)) + " @" + string(rune('a'+at%26))
}

// TestBinaryV2ForgedSizeBoundedAlloc feeds a 4096-byte file whose header
// (with a valid header CRC) declares n = 2²⁵, a 256 MB offsets section. No
// reader may allocate for the claim: every path must fail having allocated
// on the order of the input, not of the header.
func TestBinaryV2ForgedSizeBoundedAlloc(t *testing.T) {
	const n = 1 << 25
	data := make([]byte, v2Page)
	copy(data[0:4], binaryMagic)
	binary.LittleEndian.PutUint16(data[4:6], binaryVersion2)
	offLen := uint64(8 * (n + 1))
	tail := uint64(v2Align(int64(v2Page) + int64(offLen)))
	for i, s := range []struct{ off, len uint64 }{{v2Page, offLen}, {tail, 0}, {tail, 0}} {
		binary.LittleEndian.PutUint64(data[24+16*i:], s.off)
		binary.LittleEndian.PutUint64(data[32+16*i:], s.len)
	}
	binary.LittleEndian.PutUint64(data[8:16], n)
	rechecksum(data)
	if _, err := parseV2Header(data); err != nil {
		t.Fatalf("forged header must pass header validation to reach the readers: %v", err)
	}
	path := filepath.Join(t.TempDir(), "forged.dcsg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	const bound = 4 << 20 // the input plus buffers, far below the 256 MB claim
	readers := map[string]func() error{
		"ReadBinary(bytes)": func() error { _, err := ReadBinary(bytes.NewReader(data)); return err },
		"ReadBinaryFile":    func() error { _, err := ReadBinaryFile(path); return err },
		"OpenMapped": func() error {
			m, err := OpenMapped(path)
			if err == nil {
				m.Close()
			}
			return err
		},
	}
	for name, read := range readers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted the forged file", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("%s allocated %d bytes for a %d-byte input", name, got, len(data))
		}
	}
}

// FuzzReadGraphBinary fuzzes the binary reader: arbitrary bytes must never
// panic, and an accepted input must decode identically by copy and
// round-trip bitwise through the writer. The seeds are v2 files and
// corruptions of them, including the retired encodings' headers.
func FuzzReadGraphBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(84))
	encode := func(g *graph.Graph) []byte {
		var m memSeeker
		if err := writeBinaryV2(&m, g); err != nil {
			f.Fatal(err)
		}
		return m.b
	}
	// Corrupt variants of the n=40 file start the fuzzer near interesting
	// rejections.
	base := encode(randomGraph(rand.New(rand.NewSource(3)), 40))
	f.Add(base)
	f.Add(encode(graph.NewBuilder(0).Build()))
	f.Add(encode(fixtureView()))
	f.Add(encode(randomBinGraph(rng, 5, 0.5, true)))
	f.Add(encode(randomBinGraph(rng, 12, 0.3, false)))
	mutate := func(edit func(d []byte) []byte) {
		f.Add(edit(append([]byte{}, base...)))
	}
	mutate(func(d []byte) []byte { return d[:len(d)/2] })
	mutate(func(d []byte) []byte { return append(d, 0) })
	mutate(func(d []byte) []byte { d[v2Page] ^= 0xff; return d })
	mutate(func(d []byte) []byte { d[10] ^= 0x01; return d })
	mutate(func(d []byte) []byte { d[4] = 1; return d })
	for _, flags := range []uint16{1, 2} {
		mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint16(d[6:8], flags)
			rechecksum(d)
			return d
		})
	}
	f.Add(forgeID(base, 40))
	f.Add([]byte("DCSB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, input []byte) {
		g, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		copied, _, err := decodeV2(misaligned(input), nil)
		if err != nil {
			t.Fatalf("decode by copy rejected what ReadBinary accepted: %v", err)
		}
		sameBinGraph(t, "fuzz decode by copy", copied, g)
		g2, err := ReadBinary(bytes.NewReader(encodeV2(t, g)))
		if err != nil {
			t.Fatalf("reparse of own v2 output: %v", err)
		}
		sameBinGraph(t, "fuzz v2 round trip", g2, g)
	})
}

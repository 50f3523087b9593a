package dataio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/dcslib/dcs/internal/graph"
)

// randomBinGraph builds a random graph; with palette set, weights are drawn
// from a small set of values so the v2 weight palette engages.
func randomBinGraph(rng *rand.Rand, n int, p float64, palette bool) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() >= p {
				continue
			}
			var w float64
			if palette {
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
func encodeV2(t *testing.T, g *graph.Graph, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g, compress); err != nil {
		t.Fatalf("WriteBinaryV2: %v", err)
	}
	return buf.Bytes()
}

// TestBinaryV2RoundTrip is the v2↔heap property: every combination of
// encoding (raw, compressed) and reader (streaming heap, mapped) reproduces
// the graph bitwise, palette-friendly weights or not. Reading v1 is covered
// by TestBinaryV1Fixtures.
func TestBinaryV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	dir := t.TempDir()
	for _, n := range []int{0, 1, 2, 30, 150} {
		for _, palette := range []bool{true, false} {
			g := randomBinGraph(rng, n, 0.2, palette)

			// v2 in-memory round trip, raw and compressed.
			for _, compress := range []bool{false, true} {
				data := encodeV2(t, g, compress)
				got, err := ReadBinary(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("ReadBinary(v2 compress=%v): %v", compress, err)
				}
				sameBinGraph(t, "v2 heap", got, g)

				// File + mapped round trip.
				path := filepath.Join(dir, "g.dcsg")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				m, err := OpenMapped(path)
				if err != nil {
					t.Fatalf("OpenMapped(v2 compress=%v): %v", compress, err)
				}
				// Where the platform can alias, the sections are served from
				// the mapping: only compressed ones are decoded to the heap.
				if runtime.GOOS == "linux" && canAliasHost() && g.M() > 0 &&
					(m.MappedBytes() == 0 || (!compress && m.ShadowBytes() != 0)) {
					t.Fatalf("mapped %d bytes, shadow %d: want the sections served from the mapping",
						m.MappedBytes(), m.ShadowBytes())
				}
				sameBinGraph(t, "v2 mapped", m.Graph(), g)
				if compress && m.ShadowBytes() == 0 && g.M() > 0 {
					t.Fatal("compressed mapped graph reports no shadow bytes")
				}
				if err := m.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				if err := m.Close(); err != nil {
					t.Fatalf("second Close: %v", err)
				}

				// The streaming file writer must produce identical bytes to
				// the in-memory writer (deterministic encoding).
				if err := WriteBinaryV2File(path, g, compress); err != nil {
					t.Fatalf("WriteBinaryV2File: %v", err)
				}
				onDisk, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(onDisk, data) {
					t.Fatalf("file writer and memory writer disagree (compress=%v)", compress)
				}
				if err := VerifyGraphFile(path); err != nil {
					t.Fatalf("VerifyGraphFile(v2): %v", err)
				}
			}
		}
	}
}

// TestBinaryV2PaletteShrinks asserts the headline compression claim on a
// palette-friendly graph: the compressed v2 file is at least 2× smaller
// than the uncompressed one.
func TestBinaryV2PaletteShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	g := randomBinGraph(rng, 300, 0.15, true)
	raw := len(encodeV2(t, g, false))
	comp := len(encodeV2(t, g, true))
	if 2*comp > raw {
		t.Fatalf("compressed v2 is %d bytes, raw v2 %d: want ≥ 2× smaller", comp, raw)
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
// Every case must produce an error — from ReadBinary and from OpenMapped.
func TestBinaryV2CorruptInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := randomBinGraph(rng, 60, 0.2, true)
	for _, compress := range []bool{false, true} {
		data := encodeV2(t, g, compress)
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

		// Unknown flag bit.
		flags := append([]byte{}, data...)
		binary.LittleEndian.PutUint16(flags[6:8], 1<<7)
		rechecksum(flags)
		cases["unknown flags"] = flags

		dir := t.TempDir()
		for name, d := range cases {
			if _, err := ReadBinary(bytes.NewReader(d)); err == nil {
				t.Errorf("compress=%v: ReadBinary accepted %s", compress, name)
			}
			path := filepath.Join(dir, "bad.dcsg")
			if err := os.WriteFile(path, d, 0o644); err != nil {
				t.Fatal(err)
			}
			if m, err := OpenMapped(path); err == nil {
				m.Close()
				t.Errorf("compress=%v: OpenMapped accepted %s", compress, name)
			}
			if err := VerifyGraphFile(path); err == nil {
				// VerifyGraphFile only vouches for checksums and geometry;
				// payload-level corruption (hostile varints with a matching
				// CRC) is caught at decode. All cases here damage checksummed
				// bytes or the geometry, so verification must fail too.
				t.Errorf("compress=%v: VerifyGraphFile accepted %s", compress, name)
			}
		}
	}
}

func nameOf(prefix string, i int, at int64) string {
	return prefix + " " + string(rune('0'+i)) + " @" + string(rune('a'+at%26))
}

// buildV2File assembles a v2 file from raw section payloads, computing all
// CRCs — the harness for hostile-payload tests that need full control over
// section bytes (which the honest writer would never emit).
func buildV2File(flags uint16, n, e uint64, sects [3][]byte) []byte {
	pos := int64(v2Page)
	var tab [3]v2Section
	for i, b := range sects {
		tab[i] = v2Section{off: pos, len: int64(len(b)), crc: crc32.Checksum(b, crcTable)}
		pos = v2Align(pos + int64(len(b)))
	}
	end := tab[2].off + tab[2].len
	data := make([]byte, end)
	copy(data[0:4], binaryMagic)
	binary.LittleEndian.PutUint16(data[4:6], binaryVersion2)
	binary.LittleEndian.PutUint16(data[6:8], flags)
	binary.LittleEndian.PutUint64(data[8:16], n)
	binary.LittleEndian.PutUint64(data[16:24], e)
	for i, s := range tab {
		binary.LittleEndian.PutUint64(data[24+16*i:], uint64(s.off))
		binary.LittleEndian.PutUint64(data[32+16*i:], uint64(s.len))
		binary.LittleEndian.PutUint32(data[72+4*i:], s.crc)
		copy(data[s.off:], sects[i])
	}
	rechecksum(data)
	return data
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

// TestBinaryV2HostileVarints feeds hand-built varint ids sections with
// valid checksums: overlong encodings, 64-bit overflow, zero (non-monotone)
// deltas, out-of-range ids, and trailing bytes must all be rejected at
// decode.
func TestBinaryV2HostileVarints(t *testing.T) {
	// Base shape: n=3, e=2 (one edge 0–2), offsets [0,1,1,2].
	offs := func() []byte {
		b := make([]byte, 32)
		for i, o := range []uint64{0, 1, 1, 2} {
			binary.LittleEndian.PutUint64(b[8*i:], o)
		}
		return b
	}
	weights := make([]byte, 16)
	binary.LittleEndian.PutUint64(weights[0:], 0x3ff0000000000000) // 1.0
	binary.LittleEndian.PutUint64(weights[8:], 0x3ff0000000000000)

	valid := [3][]byte{offs(), {0x02, 0x00}, weights} // ids: row0=[2], row2=[0]
	if g, err := ReadBinary(bytes.NewReader(buildV2File(v2FlagDeltaIDs, 3, 2, valid))); err != nil {
		t.Fatalf("valid hand-built file rejected: %v", err)
	} else if g.Weight(0, 2) != 1 {
		t.Fatalf("valid hand-built file decoded wrong: Weight(0,2)=%v", g.Weight(0, 2))
	}

	hostile := map[string][3][]byte{
		"overlong varint":          {offs(), {0x82, 0x00, 0x00}, weights},                                                                                           // 2 encoded as 0x82 0x00
		"varint overflow":          {offs(), {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00}, weights},                                           // 10-byte with high final byte
		"varint too long":          {offs(), {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, weights},                                           // 11 bytes
		"varint runs off section":  {offs(), {0x80}, weights},                                                                                                       // continuation then EOF
		"id out of range":          {offs(), {0x63, 0x00}, weights},                                                                                                 // 99 ≥ n
		"trailing bytes after ids": {offs(), {0x02, 0x00, 0x00}, weights},                                                                                           // extra byte: 0x00 decodes but row count exhausted
		"delta out of range":       {[]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, {0x01, 0x63}, weights}, // row0=[1,100]
	}
	// "zero delta" needs a row of length 2: n=3, e=4, offsets [0,2,3,4]? —
	// simpler: n=3 with edges (0,1),(0,2): offsets [0,2,3,4] is invalid
	// (e=4 needs mirror rows); use offsets [0,2,3,4] directly — decode-level
	// rejection happens before mirror checks.
	zoff := make([]byte, 32)
	for i, o := range []uint64{0, 2, 3, 4} {
		binary.LittleEndian.PutUint64(zoff[8*i:], o)
	}
	zweights := make([]byte, 32)
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(zweights[8*i:], 0x3ff0000000000000)
	}
	hostile["zero delta"] = [3][]byte{zoff, {0x01, 0x00, 0x00, 0x00}, zweights} // row0=[1,+0]

	for name, sects := range hostile {
		e := uint64(2)
		if name == "zero delta" {
			e = 4
		}
		data := buildV2File(v2FlagDeltaIDs, 3, e, sects)
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("ReadBinary accepted hostile ids section: %s", name)
		}
	}

	// Hostile palette: index beyond palette count, and wrong section length.
	palSect := make([]byte, 2+8+2) // count=1, one palette weight, e=2 indices
	binary.LittleEndian.PutUint16(palSect[0:2], 1)
	binary.LittleEndian.PutUint64(palSect[2:10], 0x3ff0000000000000)
	palSect[10], palSect[11] = 0, 1 // index 1 out of range
	data := buildV2File(v2FlagDeltaIDs|v2FlagPalette, 3, 2, [3][]byte{offs(), {0x02, 0x00}, palSect})
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("ReadBinary accepted out-of-range palette index")
	}
	shortPal := buildV2File(v2FlagDeltaIDs|v2FlagPalette, 3, 2, [3][]byte{offs(), {0x02, 0x00}, palSect[:11]})
	if _, err := ReadBinary(bytes.NewReader(shortPal)); err == nil {
		t.Error("ReadBinary accepted short palette section")
	}
}

// TestGetUvarint pins the strict varint decoder's contract.
func TestGetUvarint(t *testing.T) {
	cases := []struct {
		in   []byte
		v    uint64
		size int
	}{
		{[]byte{0x00}, 0, 1},
		{[]byte{0x01}, 1, 1},
		{[]byte{0x7f}, 127, 1},
		{[]byte{0x80, 0x01}, 128, 2},
		{[]byte{0xff, 0x7f}, 16383, 2},
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, ^uint64(0), 10},
		{nil, 0, 0},                // empty
		{[]byte{0x80}, 0, 0},       // short
		{[]byte{0x80, 0x00}, 0, 0}, // overlong zero continuation
		{[]byte{0xff, 0x00}, 0, 0}, // overlong
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, 0, 0},       // overflow
		{[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 0, 0}, // 11 bytes
	}
	for _, tc := range cases {
		v, size := getUvarint(tc.in)
		if v != tc.v || size != tc.size {
			t.Errorf("getUvarint(%x) = (%d, %d), want (%d, %d)", tc.in, v, size, tc.v, tc.size)
		}
	}
	// Every minimally encoded value round-trips.
	buf := make([]byte, 10)
	for _, want := range []uint64{0, 1, 127, 128, 300, 1 << 20, 1 << 40, ^uint64(0)} {
		n := binary.PutUvarint(buf, want)
		v, size := getUvarint(buf[:n])
		if v != want || size != n {
			t.Errorf("round trip %d: got (%d, %d), want (%d, %d)", want, v, size, want, n)
		}
	}
}

// FuzzReadGraphBinary fuzzes the binary reader across both format versions
// (the v1 seeds are the committed fixtures): arbitrary bytes must never
// panic, and accepted inputs must round-trip bitwise through the v2 writer.
func FuzzReadGraphBinary(f *testing.F) {
	for path := range v1Fixtures() {
		f.Add(readFixture(f, path))
	}
	rng := rand.New(rand.NewSource(84))
	seed := func(g *graph.Graph) {
		for _, compress := range []bool{false, true} {
			var m memSeeker
			if err := writeBinaryV2(&m, g, compress); err == nil {
				f.Add(m.b)
			}
		}
	}
	seed(graph.NewBuilder(0).Build())
	seed(randomBinGraph(rng, 5, 0.5, true))
	seed(randomBinGraph(rng, 12, 0.3, false))
	// Corrupt variants so the fuzzer starts near interesting rejections.
	g := randomBinGraph(rng, 8, 0.4, true)
	var m memSeeker
	if err := writeBinaryV2(&m, g, true); err == nil {
		f.Add(m.b[:len(m.b)/2])
		flip := append([]byte{}, m.b...)
		flip[v2Page] ^= 0xff
		f.Add(flip)
	}
	f.Add([]byte("DCSB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, input []byte) {
		g, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, compress := range []bool{false, true} {
			data := encodeV2(t, g, compress)
			g2, err := ReadBinary(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("reparse of own v2 output (compress=%v): %v", compress, err)
			}
			sameBinGraph(t, "fuzz v2 round trip", g2, g)
		}
	})
}

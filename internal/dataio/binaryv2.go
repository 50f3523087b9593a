package dataio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"github.com/dcslib/dcs/internal/graph"
)

// This file implements version 2 of the binary graph codec, the one
// encoding every reader and writer uses: the mmap-ready layout behind
// out-of-core snapshot serving. It stores the three CSR arrays in separate
// page-aligned sections so a mapped file IS the adjacency:
//
//	[0:4096)  header page (all integers little-endian)
//	  [0:4)    magic "DCSB"
//	  [4:6)    format version, uint16 = 2
//	  [6:8)    reserved, uint16 = 0
//	  [8:16)   n, uint64 vertex count
//	  [16:24)  e, uint64 directed entry count (2m)
//	  [24:72)  section table: 3 × (offset uint64, length uint64) for the
//	           offsets / ids / weights sections, in file order
//	  [72:84)  3 × uint32 CRC32-C, one per section's exact payload
//	  [84:88)  uint32 CRC32-C of header bytes [0:84)
//	  rest     zero padding
//	...       offsets section: off[0..n], (n+1) × uint64
//	...       ids section: e neighbor ids, uint32 each
//	...       weights section: e weights, float64 bits each
//
// Every section starts on a 4096-byte boundary at the lowest such offset
// after its predecessor (detecting both misalignment and reordering), and
// the file ends exactly where the weights section does. The split layout is
// the in-memory layout of a graph.Graph, which is what lets internal/dataio
// hand the mapped bytes straight to graph.FromCSR: on 64-bit little-endian
// hosts the sections are aliased in place (zero-copy, paged by the kernel);
// elsewhere they are decoded once into heap "shadow" buffers whose size the
// caller can account. Per-section CRCs detect corruption before any bytes
// are trusted, and graph.FromCSR re-verifies every structural invariant on
// top.

const (
	binaryVersion2 = 2
	// v2Page is the section alignment and the header block size. 4096
	// matches the page size of every platform this module targets, which is
	// what makes aliasing mapped sections as typed slices safe: a section
	// start is always pointer-aligned for uint64/float64.
	v2Page = 4096
	// v2HeaderLen is the number of meaningful header bytes; [84:88) is the
	// header CRC over [0:84).
	v2HeaderLen = 88
	v2CRCEnd    = 84

	// v2MaxE caps the directed entry count accepted from a header.
	v2MaxE = 1 << 34
)

// v2Section locates one section's payload and its checksum.
type v2Section struct {
	off, len int64
	crc      uint32
}

// v2Header is the parsed and validated fixed header of a v2 file.
type v2Header struct {
	n, e int
	sect [3]v2Section // offsets, ids, weights — in file order
}

// end returns the exact file size the header describes.
func (h *v2Header) end() int64 { return h.sect[2].off + h.sect[2].len }

// v2Align rounds up to the next section boundary.
func v2Align(x int64) int64 { return (x + v2Page - 1) &^ (v2Page - 1) }

// parseV2Header validates hdr (the first v2Page bytes of a file, or all of
// a shorter one) and returns the decoded header. It checks the magic and
// version first, so a short file of another kind or version is named as
// such, then the header checksum, the reserved field and the plausibility
// caps, then the section table: canonical ascending page-aligned placement
// and exact per-section lengths, so a hostile header cannot direct a reader
// outside the file or demand an absurd allocation.
func parseV2Header(hdr []byte) (*v2Header, error) {
	if len(hdr) < 6 {
		return nil, fmt.Errorf("dataio: truncated binary graph: %d bytes", len(hdr))
	}
	if string(hdr[0:4]) != binaryMagic {
		return nil, fmt.Errorf("dataio: bad magic %q: not a binary graph file", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != binaryVersion2 {
		return nil, fmt.Errorf("dataio: unsupported binary graph version %d (only version %d is read)", v, binaryVersion2)
	}
	if len(hdr) < v2Page {
		return nil, fmt.Errorf("dataio: truncated v2 header: %d bytes", len(hdr))
	}
	if got, want := binary.LittleEndian.Uint32(hdr[v2CRCEnd:v2HeaderLen]), crc32.Checksum(hdr[:v2CRCEnd], crcTable); got != want {
		return nil, fmt.Errorf("dataio: v2 header checksum mismatch: header says %#x, content hashes to %#x", got, want)
	}
	if rsv := binary.LittleEndian.Uint16(hdr[6:8]); rsv != 0 {
		return nil, fmt.Errorf("dataio: reserved v2 header field is %#x, want 0: compressed v2 files are no longer read", rsv)
	}
	h := &v2Header{}
	n64 := binary.LittleEndian.Uint64(hdr[8:16])
	e64 := binary.LittleEndian.Uint64(hdr[16:24])
	if n64 > binaryMaxN {
		return nil, fmt.Errorf("dataio: implausible vertex count %d", n64)
	}
	if e64%2 != 0 || e64 > v2MaxE {
		return nil, fmt.Errorf("dataio: implausible entry count %d", e64)
	}
	h.n, h.e = int(n64), int(e64)

	for i := range h.sect {
		o := binary.LittleEndian.Uint64(hdr[24+16*i : 32+16*i])
		l := binary.LittleEndian.Uint64(hdr[32+16*i : 40+16*i])
		// The individual caps below are far under 2^40; rejecting anything
		// larger up front keeps the int64 arithmetic overflow-free.
		if o > 1<<40 || l > 1<<40 {
			return nil, fmt.Errorf("dataio: implausible v2 section %d geometry (off %d, len %d)", i, o, l)
		}
		h.sect[i] = v2Section{
			off: int64(o),
			len: int64(l),
			crc: binary.LittleEndian.Uint32(hdr[72+4*i : 76+4*i]),
		}
	}

	// Canonical placement: each section at the first page boundary after
	// the previous one. Anything else — overlap, gaps beyond padding,
	// reordering, misalignment — is corruption.
	want := int64(v2Page)
	for i, s := range h.sect {
		if s.off != want {
			return nil, fmt.Errorf("dataio: v2 section %d at offset %d, want %d (page-aligned after predecessor)", i, s.off, want)
		}
		want = v2Align(s.off + s.len)
	}

	// Per-section length rules.
	e := int64(h.e)
	if wantLen := 8 * int64(h.n+1); h.sect[0].len != wantLen {
		return nil, fmt.Errorf("dataio: v2 offsets section length %d, want %d", h.sect[0].len, wantLen)
	}
	if h.sect[1].len != 4*e {
		return nil, fmt.Errorf("dataio: v2 ids section length %d, want %d", h.sect[1].len, 4*e)
	}
	if h.sect[2].len != 8*e {
		return nil, fmt.Errorf("dataio: v2 weights section length %d, want %d", h.sect[2].len, 8*e)
	}
	return h, nil
}

// decodeV2Offsets parses the offsets section into a heap []int, verifying
// it is a monotone cover of exactly e entries. The offsets always live on
// the heap — they are the O(n) index a mapped graph keeps resident while
// the O(e) adjacency stays in the mapping.
func decodeV2Offsets(b []byte, n, e int) ([]int, error) {
	off := make([]int, n+1)
	prev := uint64(0)
	for i := range off {
		o := binary.LittleEndian.Uint64(b[8*i : 8*i+8])
		if o > uint64(e) {
			return nil, fmt.Errorf("dataio: offset %d beyond entry count %d", o, e)
		}
		if o < prev {
			return nil, fmt.Errorf("dataio: offsets decrease at index %d", i)
		}
		prev = o
		off[i] = int(o)
	}
	if off[0] != 0 || off[n] != e {
		return nil, fmt.Errorf("dataio: offsets span [%d,%d], want [0,%d]", off[0], off[n], e)
	}
	return off, nil
}

// decodeV2IDsRaw parses the ids section by copy, the path taken when
// in-place aliasing is unavailable.
func decodeV2IDsRaw(b []byte, e, n int) ([]int32, error) {
	ids := make([]int32, e)
	for i := range ids {
		v := binary.LittleEndian.Uint32(b[4*i : 4*i+4])
		if v >= uint32(n) {
			return nil, fmt.Errorf("dataio: neighbor id %d out of range [0,%d)", v, n)
		}
		ids[i] = int32(v)
	}
	return ids, nil
}

// decodeV2Weights parses the weights section by copy into a heap
// []float64.
func decodeV2Weights(b []byte, e int) []float64 {
	ws := make([]float64, e)
	for i := range ws {
		ws[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i : 8*i+8]))
	}
	return ws
}

// memSeeker is a growable in-memory io.WriteSeeker, letting the seek-back
// header write of the v2 encoder target plain io.Writers (tests, fuzzing).
type memSeeker struct {
	b   []byte
	pos int64
}

func (m *memSeeker) Write(p []byte) (int, error) {
	if need := m.pos + int64(len(p)); need > int64(len(m.b)) {
		m.b = append(m.b, make([]byte, need-int64(len(m.b)))...)
	}
	copy(m.b[m.pos:], p)
	m.pos += int64(len(p))
	return len(p), nil
}

func (m *memSeeker) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += m.pos
	case io.SeekEnd:
		offset += int64(len(m.b))
	}
	if offset < 0 {
		return 0, fmt.Errorf("dataio: seek before start")
	}
	m.pos = offset
	return offset, nil
}

// countCRCWriter tracks a running CRC32-C and byte count of one section.
type countCRCWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (cw *countCRCWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.crc = crc32.Update(cw.crc, crcTable, p[:n])
	return n, err
}

// WriteBinaryV2 writes g in binary format v2, whose ids and weights
// sections OpenMapped can use as CSR arrays in place. Views are compacted
// first. When w is an io.WriteSeeker (an *os.File is) the encoder streams
// row by row with a bounded scratch buffer and seeks back once to write the
// header; otherwise it assembles the file in memory first.
func WriteBinaryV2(w io.Writer, g *graph.Graph) error {
	if ws, ok := w.(io.WriteSeeker); ok {
		return writeBinaryV2(ws, g)
	}
	var m memSeeker
	if err := writeBinaryV2(&m, g); err != nil {
		return err
	}
	_, err := w.Write(m.b)
	return err
}

// WriteBinaryV2File writes g to path in binary format v2, streaming.
func WriteBinaryV2File(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := writeBinaryV2(f, g); err != nil {
		return pathErr(path, err)
	}
	return f.Close()
}

func writeBinaryV2(w io.WriteSeeker, g *graph.Graph) error {
	off, ids, ws, _ := g.Compact().CSR()
	n, e := g.N(), len(ids)

	// Header page placeholder; the real header is seek-written at the end,
	// when the section table and CRCs are known.
	zeros := make([]byte, v2Page)
	if _, err := w.Write(zeros); err != nil {
		return err
	}

	var sect [3]v2Section
	pos := int64(v2Page)
	// pad advances the stream to the next page boundary.
	pad := func() error {
		if rem := v2Align(pos) - pos; rem > 0 {
			if _, err := w.Write(zeros[:rem]); err != nil {
				return err
			}
			pos += rem
		}
		return nil
	}
	// section streams one section through fill and records its geometry.
	section := func(i int, fill func(cw *countCRCWriter, buf []byte) error) error {
		if err := pad(); err != nil {
			return err
		}
		cw := &countCRCWriter{w: w}
		if err := fill(cw, make([]byte, 1<<16)); err != nil {
			return err
		}
		sect[i] = v2Section{off: pos, len: cw.n, crc: cw.crc}
		pos += cw.n
		return nil
	}

	// Offsets section.
	err := section(0, func(cw *countCRCWriter, buf []byte) error {
		fill := 0
		for _, o := range off {
			if fill+8 > len(buf) {
				if _, err := cw.Write(buf[:fill]); err != nil {
					return err
				}
				fill = 0
			}
			binary.LittleEndian.PutUint64(buf[fill:], uint64(o))
			fill += 8
		}
		_, err := cw.Write(buf[:fill])
		return err
	})
	if err != nil {
		return err
	}

	// Ids section.
	err = section(1, func(cw *countCRCWriter, buf []byte) error {
		fill := 0
		for _, v := range ids {
			if fill+4 > len(buf) {
				if _, err := cw.Write(buf[:fill]); err != nil {
					return err
				}
				fill = 0
			}
			binary.LittleEndian.PutUint32(buf[fill:], uint32(v))
			fill += 4
		}
		_, err := cw.Write(buf[:fill])
		return err
	})
	if err != nil {
		return err
	}

	// Weights section.
	err = section(2, func(cw *countCRCWriter, buf []byte) error {
		fill := 0
		for _, w := range ws {
			if fill+8 > len(buf) {
				if _, err := cw.Write(buf[:fill]); err != nil {
					return err
				}
				fill = 0
			}
			binary.LittleEndian.PutUint64(buf[fill:], math.Float64bits(w))
			fill += 8
		}
		_, err := cw.Write(buf[:fill])
		return err
	})
	if err != nil {
		return err
	}

	// Seek back and write the real header.
	hdr := make([]byte, v2HeaderLen)
	copy(hdr[0:4], binaryMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], binaryVersion2)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(e))
	for i, s := range sect {
		binary.LittleEndian.PutUint64(hdr[24+16*i:], uint64(s.off))
		binary.LittleEndian.PutUint64(hdr[32+16*i:], uint64(s.len))
		binary.LittleEndian.PutUint32(hdr[72+4*i:], s.crc)
	}
	binary.LittleEndian.PutUint32(hdr[v2CRCEnd:], crc32.Checksum(hdr[:v2CRCEnd], crcTable))
	if _, err := w.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	// Leave the stream at the end of the file so a file's size is correct
	// even if the caller truncates at the current position.
	_, err = w.Seek(pos, io.SeekStart)
	return err
}

// VerifyGraphFile streams path once and verifies its integrity checksums —
// the v2 header and per-section CRCs — without decoding or allocating the
// graph. The dcsd boot path uses it to vouch for lazily opened snapshots in
// O(file) I/O and O(1) memory.
func VerifyGraphFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	hdr := make([]byte, v2Page)
	k, err := io.ReadFull(f, hdr)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return pathErr(path, err)
	}
	h, err := parseV2Header(hdr[:k])
	if err != nil {
		return pathErr(path, err)
	}
	if h.end() != st.Size() {
		return pathErr(path, fmt.Errorf("dataio: v2 file is %d bytes, header describes %d", st.Size(), h.end()))
	}
	for i, s := range h.sect {
		if _, err := f.Seek(s.off, io.SeekStart); err != nil {
			return err
		}
		cw := &countCRCWriter{w: io.Discard}
		if _, err := io.CopyN(cw, f, s.len); err != nil {
			return pathErr(path, err)
		}
		if cw.crc != s.crc {
			return pathErr(path, fmt.Errorf("dataio: v2 section %d checksum mismatch: header says %#x, content hashes to %#x", i, s.crc, cw.crc))
		}
	}
	return nil
}

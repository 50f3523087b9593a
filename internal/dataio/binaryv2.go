package dataio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"github.com/dcslib/dcs/internal/graph"
)

// This file implements format v2 of the binary graph codec: the mmap-ready
// layout behind out-of-core snapshot serving. Where v1 interleaves ids and
// weights behind a single trailing checksum — compact, but unusable as
// in-place CSR storage — v2 separates the three CSR arrays into page-aligned
// sections so a mapped file IS the adjacency:
//
//	[0:4096)  header page (all integers little-endian)
//	  [0:4)    magic "DCSB"
//	  [4:6)    format version, uint16 = 2
//	  [6:8)    flags, uint16: bit 0 varint-delta ids, bit 1 weight palette
//	  [8:16)   n, uint64 vertex count
//	  [16:24)  e, uint64 directed entry count (2m)
//	  [24:72)  section table: 3 × (offset uint64, length uint64) for the
//	           offsets / ids / weights sections, in file order
//	  [72:84)  3 × uint32 CRC32-C, one per section's exact payload
//	  [84:88)  uint32 CRC32-C of header bytes [0:84)
//	  rest     zero padding
//	...       offsets section: off[0..n], (n+1) × uint64
//	...       ids section: e neighbor ids — raw uint32s, or per-row
//	          varint-delta when flag bit 0 is set
//	...       weights section: e weights — raw float64 bits, or a palette
//	          ([count uint16][count × float64 bits][e × uint8 index]) when
//	          flag bit 1 is set
//
// Every section starts on a 4096-byte boundary at the lowest such offset
// after its predecessor (detecting both misalignment and reordering), and
// the file ends exactly where the weights section does. The split layout is
// the in-memory layout of a graph.Graph, which is what lets internal/dataio
// hand the mapped bytes straight to graph.FromCSR: uncompressed ids and
// weights are aliased in place
// (zero-copy, paged by the kernel), while compressed sections are decoded
// once into aligned heap "shadow" buffers whose size the caller can account
// and evict. Per-section CRCs keep the v1 durability contract — corruption
// is detected before any bytes are trusted — and graph.FromCSR
// re-verifies every structural invariant on top.
//
// Compression (optional, flag-gated per file): row ids are sorted, so each
// row is encoded as uvarint(first id) followed by uvarint(delta ≥ 1) per
// subsequent id; real-world graph weights cluster on few distinct values, so
// when a graph has ≤ 256 distinct weight bit patterns the weights section
// stores each entry as one palette index instead of eight raw bytes.
// Together these shrink typical files 2–4×. Decoders are strict: overlong
// varints, 64-bit overflow, zero deltas, out-of-range ids and palette
// indices, and trailing bytes are all errors.

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

	v2FlagDeltaIDs = 1 << 0 // ids section is per-row varint-delta encoded
	v2FlagPalette  = 1 << 1 // weights section is palette encoded
	v2FlagsKnown   = v2FlagDeltaIDs | v2FlagPalette

	// v2MaxE mirrors the v1 entry-count plausibility cap.
	v2MaxE = 1 << 34
	// v2MaxPalette is the largest weight palette a writer emits and a
	// reader accepts; indices are a single byte.
	v2MaxPalette = 256
)

// v2Section locates one section's payload and its checksum.
type v2Section struct {
	off, len int64
	crc      uint32
}

// v2Header is the parsed and validated fixed header of a v2 file.
type v2Header struct {
	flags uint16
	n, e  int
	sect  [3]v2Section // offsets, ids, weights — in file order
}

// end returns the exact file size the header describes.
func (h *v2Header) end() int64 { return h.sect[2].off + h.sect[2].len }

// v2Align rounds up to the next section boundary.
func v2Align(x int64) int64 { return (x + v2Page - 1) &^ (v2Page - 1) }

// parseV2Header validates hdr (the first v2Page bytes of a file) and
// returns the decoded header. It checks the header checksum first, then the
// plausibility caps, then the section table: canonical ascending
// page-aligned placement and per-section exact or bounded lengths, so a
// hostile header cannot direct a reader outside the file or demand an
// absurd allocation.
func parseV2Header(hdr []byte) (*v2Header, error) {
	if len(hdr) < v2Page {
		return nil, fmt.Errorf("dataio: truncated v2 header: %d bytes", len(hdr))
	}
	if string(hdr[0:4]) != binaryMagic {
		return nil, fmt.Errorf("dataio: bad magic %q: not a binary graph file", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != binaryVersion2 {
		return nil, fmt.Errorf("dataio: unsupported binary graph version %d", v)
	}
	if got, want := binary.LittleEndian.Uint32(hdr[v2CRCEnd:v2HeaderLen]), crc32.Checksum(hdr[:v2CRCEnd], crcTable); got != want {
		return nil, fmt.Errorf("dataio: v2 header checksum mismatch: header says %#x, content hashes to %#x", got, want)
	}
	h := &v2Header{flags: binary.LittleEndian.Uint16(hdr[6:8])}
	if h.flags&^uint16(v2FlagsKnown) != 0 {
		return nil, fmt.Errorf("dataio: unknown v2 flags %#x", h.flags)
	}
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
	if h.flags&v2FlagDeltaIDs != 0 {
		if h.sect[1].len < e || h.sect[1].len > 5*e {
			return nil, fmt.Errorf("dataio: v2 varint ids section length %d implausible for %d entries", h.sect[1].len, e)
		}
	} else if h.sect[1].len != 4*e {
		return nil, fmt.Errorf("dataio: v2 ids section length %d, want %d", h.sect[1].len, 4*e)
	}
	if h.flags&v2FlagPalette != 0 {
		if h.sect[2].len < 2 || h.sect[2].len > 2+8*v2MaxPalette+e {
			return nil, fmt.Errorf("dataio: v2 weight palette section length %d implausible for %d entries", h.sect[2].len, e)
		}
	} else if h.sect[2].len != 8*e {
		return nil, fmt.Errorf("dataio: v2 weights section length %d, want %d", h.sect[2].len, 8*e)
	}
	return h, nil
}

// getUvarint decodes a minimally encoded base-128 varint from the front of
// b. It returns the value and the number of bytes consumed; a consumed
// count of 0 signals corrupt input — empty or short buffer, more than 10
// bytes, 64-bit overflow, or a non-minimal (overlong) encoding such as
// 0x80 0x00. binary.Uvarint is not used because it accepts overlong forms,
// which would make the encoding non-canonical and the CRCs bypassable by
// re-encoders.
func getUvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			if i > 0 && c == 0 {
				return 0, 0 // overlong: a useless trailing zero byte
			}
			if i == 9 && c > 1 {
				return 0, 0 // would overflow 64 bits
			}
			return v | uint64(c)<<(7*i), i + 1
		}
		if i == 9 {
			return 0, 0 // an 11th byte can never be valid
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
	return 0, 0 // ran off the buffer mid-varint
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

// decodeV2IDsRaw parses an uncompressed ids section (the copying path used
// when in-place aliasing is unavailable).
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

// decodeV2IDsDelta decodes a per-row varint-delta ids section against the
// already validated offsets. Rows are strictly increasing in a valid graph,
// so within a row the first value is the id itself and every subsequent
// value is a delta ≥ 1; a zero delta (non-monotone row), an id ≥ n, any
// malformed varint, or bytes left over after the last row are corruption.
func decodeV2IDsDelta(b []byte, off []int, n int) ([]int32, error) {
	e := off[len(off)-1]
	ids := make([]int32, 0, e)
	pos := 0
	for u := 0; u+1 < len(off); u++ {
		prev := -1
		for k := off[u]; k < off[u+1]; k++ {
			v, sz := getUvarint(b[pos:])
			if sz == 0 {
				return nil, fmt.Errorf("dataio: corrupt varint neighbor id in row %d", u)
			}
			pos += sz
			if v >= uint64(n) {
				// Neither a first id nor a delta can reach n in a valid row.
				return nil, fmt.Errorf("dataio: neighbor id delta %d out of range in row %d", v, u)
			}
			id := int(v)
			if prev >= 0 {
				if v == 0 {
					return nil, fmt.Errorf("dataio: zero neighbor delta (non-monotone row %d)", u)
				}
				id = prev + int(v)
				if id >= n {
					return nil, fmt.Errorf("dataio: neighbor id %d out of range [0,%d) in row %d", id, n, u)
				}
			}
			ids = append(ids, int32(id))
			prev = id
		}
	}
	if pos != len(b) {
		return nil, fmt.Errorf("dataio: %d trailing bytes after varint neighbor ids", len(b)-pos)
	}
	return ids, nil
}

// decodeV2Weights parses a weights section, raw or palette, into a heap
// []float64.
func decodeV2Weights(b []byte, e int, palette bool) ([]float64, error) {
	if !palette {
		ws := make([]float64, e)
		for i := range ws {
			ws[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i : 8*i+8]))
		}
		return ws, nil
	}
	if len(b) < 2 {
		return nil, fmt.Errorf("dataio: weight palette section too short (%d bytes)", len(b))
	}
	cnt := int(binary.LittleEndian.Uint16(b[0:2]))
	if cnt > v2MaxPalette {
		return nil, fmt.Errorf("dataio: weight palette has %d entries, max %d", cnt, v2MaxPalette)
	}
	if len(b) != 2+8*cnt+e {
		return nil, fmt.Errorf("dataio: weight palette section length %d, want %d (%d palette entries, %d indices)",
			len(b), 2+8*cnt+e, cnt, e)
	}
	pal := make([]float64, cnt)
	for i := range pal {
		pal[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[2+8*i : 10+8*i]))
	}
	idx := b[2+8*cnt:]
	ws := make([]float64, e)
	for i := 0; i < e; i++ {
		j := int(idx[i])
		if j >= cnt {
			return nil, fmt.Errorf("dataio: weight palette index %d out of range [0,%d)", j, cnt)
		}
		ws[i] = pal[j]
	}
	return ws, nil
}

// readBinaryV2 is the heap reader for v2 files, the io.Reader counterpart
// of OpenMapped: it reads the whole input into one buffer and runs it
// through decodeV2, so the graph aliases the buffer where the platform
// allows. size is the input's byte count when the caller knows it (a
// regular file's Stat) and -1 otherwise. Either way the buffer is bounded
// by the bytes actually present, never by the header's claims: an unknown
// size grows the buffer as data arrives, and a header describing more than
// the input holds fails decodeV2's size check before any section is read.
// ReadBinary dispatches here on a version-2 header.
func readBinaryV2(r io.Reader, size int64) (*graph.Graph, error) {
	var data []byte
	var err error
	if size < 0 {
		data, err = io.ReadAll(r)
	} else {
		data = make([]byte, size)
		var k int
		k, err = io.ReadFull(r, data)
		data = data[:k] // shorter than Stat said: decodeV2's size check judges it
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = nil
		}
	}
	if err != nil {
		return nil, err
	}
	g, _, err := decodeV2(data, nil)
	return g, err
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

// WriteBinaryV2 writes g in binary format v2. With compress set, neighbor
// ids are varint-delta encoded and, when the graph has at most 256 distinct
// weight bit patterns, weights are palette encoded; without it the file's
// ids and weights sections can be used as CSR arrays in place by OpenMapped.
// Views are compacted first. When w is an
// io.WriteSeeker (an *os.File is) the encoder streams row by row with a
// bounded scratch buffer and seeks back once to write the header; otherwise
// it assembles the file in memory first.
func WriteBinaryV2(w io.Writer, g *graph.Graph, compress bool) error {
	if ws, ok := w.(io.WriteSeeker); ok {
		return writeBinaryV2(ws, g, compress)
	}
	var m memSeeker
	if err := writeBinaryV2(&m, g, compress); err != nil {
		return err
	}
	_, err := w.Write(m.b)
	return err
}

// WriteBinaryV2File writes g to path in binary format v2, streaming.
func WriteBinaryV2File(path string, g *graph.Graph, compress bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := writeBinaryV2(f, g, compress); err != nil {
		return pathErr(path, err)
	}
	return f.Close()
}

func writeBinaryV2(w io.WriteSeeker, g *graph.Graph, compress bool) error {
	off, ids, ws, _ := g.Compact().CSR()
	n, e := g.N(), len(ids)

	flags := uint16(0)
	var palette []uint64        // sorted distinct weight bit patterns
	var palIdx map[uint64]uint8 // bits → palette index
	if compress {
		flags |= v2FlagDeltaIDs
		if pal, ok := weightPalette(ws); ok {
			flags |= v2FlagPalette
			palette = pal
			palIdx = make(map[uint64]uint8, len(pal))
			for i, bits := range pal {
				palIdx[bits] = uint8(i)
			}
		}
	}

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

	// Ids section: raw uint32s, or per-row varint-delta.
	err = section(1, func(cw *countCRCWriter, buf []byte) error {
		fill := 0
		flushIfPast := func(need int) error {
			if fill+need > len(buf) {
				if _, err := cw.Write(buf[:fill]); err != nil {
					return err
				}
				fill = 0
			}
			return nil
		}
		if flags&v2FlagDeltaIDs == 0 {
			for _, v := range ids {
				if err := flushIfPast(4); err != nil {
					return err
				}
				binary.LittleEndian.PutUint32(buf[fill:], uint32(v))
				fill += 4
			}
		} else {
			for u := 0; u < n; u++ {
				prev := 0
				for i := off[u]; i < off[u+1]; i++ {
					if err := flushIfPast(binary.MaxVarintLen32); err != nil {
						return err
					}
					v := int(ids[i])
					if i == off[u] {
						fill += binary.PutUvarint(buf[fill:], uint64(v))
					} else {
						fill += binary.PutUvarint(buf[fill:], uint64(v-prev))
					}
					prev = v
				}
			}
		}
		_, err := cw.Write(buf[:fill])
		return err
	})
	if err != nil {
		return err
	}

	// Weights section: raw float64 bits, or palette + one index per entry.
	err = section(2, func(cw *countCRCWriter, buf []byte) error {
		fill := 0
		if flags&v2FlagPalette == 0 {
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
		}
		binary.LittleEndian.PutUint16(buf[0:2], uint16(len(palette)))
		fill = 2
		for _, bits := range palette {
			binary.LittleEndian.PutUint64(buf[fill:], bits)
			fill += 8
		}
		for _, w := range ws {
			if fill+1 > len(buf) {
				if _, err := cw.Write(buf[:fill]); err != nil {
					return err
				}
				fill = 0
			}
			buf[fill] = palIdx[math.Float64bits(w)]
			fill++
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
	binary.LittleEndian.PutUint16(hdr[6:8], flags)
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

// weightPalette collects the distinct weight bit patterns of ws, sorted
// ascending for a deterministic encoding. ok is false when the graph has
// more than v2MaxPalette distinct weights and must be written raw.
func weightPalette(ws []float64) (pal []uint64, ok bool) {
	seen := make(map[uint64]struct{}, v2MaxPalette+1)
	for _, w := range ws {
		bits := math.Float64bits(w)
		if _, dup := seen[bits]; dup {
			continue
		}
		if len(seen) == v2MaxPalette {
			return nil, false
		}
		seen[bits] = struct{}{}
	}
	pal = make([]uint64, 0, len(seen))
	for bits := range seen {
		pal = append(pal, bits)
	}
	sort.Slice(pal, func(i, j int) bool { return pal[i] < pal[j] })
	return pal, true
}

// VerifyGraphFile streams path once and verifies its integrity checksums —
// the v1 trailing CRC or the v2 header and per-section CRCs — without
// decoding or allocating the graph. The dcsd boot path uses it to vouch for
// lazily opened snapshots in O(file) I/O and O(1) memory.
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
	size := st.Size()

	var pre [6]byte
	if _, err := io.ReadFull(f, pre[:]); err != nil {
		return pathErr(path, fmt.Errorf("dataio: truncated binary graph: %w", err))
	}
	if string(pre[0:4]) != binaryMagic {
		return pathErr(path, fmt.Errorf("dataio: bad magic %q: not a binary graph file", pre[0:4]))
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	switch v := binary.LittleEndian.Uint16(pre[4:6]); v {
	case binaryVersion1:
		if size < 4 {
			return pathErr(path, fmt.Errorf("dataio: truncated binary graph: %d bytes", size))
		}
		cw := &countCRCWriter{w: io.Discard}
		if _, err := io.CopyN(cw, f, size-4); err != nil {
			return pathErr(path, err)
		}
		var sum [4]byte
		if _, err := io.ReadFull(f, sum[:]); err != nil {
			return pathErr(path, err)
		}
		if got := binary.LittleEndian.Uint32(sum[:]); got != cw.crc {
			return pathErr(path, fmt.Errorf("dataio: binary graph checksum mismatch: file says %#x, content hashes to %#x", got, cw.crc))
		}
		return nil
	case binaryVersion2:
		hdr := make([]byte, v2Page)
		if _, err := io.ReadFull(f, hdr); err != nil {
			return pathErr(path, fmt.Errorf("dataio: truncated binary graph: %w", err))
		}
		h, err := parseV2Header(hdr)
		if err != nil {
			return pathErr(path, err)
		}
		if h.end() != size {
			return pathErr(path, fmt.Errorf("dataio: v2 file is %d bytes, header describes %d", size, h.end()))
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
	default:
		return pathErr(path, fmt.Errorf("dataio: unsupported binary graph version %d", v))
	}
}

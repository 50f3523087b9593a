package dataio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"github.com/dcslib/dcs/internal/graph"
)

// This file holds what both versions of the native binary graph format
// share — the magic, the extension, the version-dispatching readers — and
// the read-only decoder of the legacy version 1. The format is the fast
// path for large graphs: the CSR arrays of a graph.Graph are stored
// verbatim (see graph.CSR), so reading skips all text parsing, per-edge
// sorting and duplicate merging. It is the on-disk format of the dcsd
// persistence layer (serve/persist.go) and of the .dcsg files the cmd/
// tools read and write by extension.
//
// Every writer emits version 2 (binaryv2.go). Version 1 is still read, so
// files and data directories written by earlier builds keep loading:
//
//	[0:4)    magic "DCSB"
//	[4:6)    format version, uint16 = 1
//	[6:8)    reserved, zero
//	[8:16)   n, uint64 vertex count
//	[16:24)  e, uint64 directed entry count (2m)
//	...      off[0..n], n+1 × uint64
//	...      e entries: neighbor id uint32, weight float64 bits
//	[-4:]    CRC32-C (Castagnoli) of every preceding byte
//
// The trailing checksum covers header and payload, so truncation, bit rot
// and partial writes are detected before a graph is handed to a caller; the
// structural invariants (sorted rows, mirrored entries, finite non-zero
// weights) are re-verified by graph.FromCSR on top of it.

// BinaryExt is the conventional file extension of the binary graph format,
// recognized by the extension-dispatching readers and writers below and by
// the cmd/ tools.
const BinaryExt = ".dcsg"

const (
	binaryMagic    = "DCSB"
	binaryVersion1 = 1
	// binaryMaxN caps the vertex count accepted from a binary header so a
	// corrupt or hostile size field cannot demand an absurd allocation
	// before the checksum is ever verified.
	binaryMaxN = 1 << 31
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ReadBinary reads a graph in the binary format — either version — into an
// ordinary heap graph, verifying the integrity checksums and every
// structural invariant before returning it. A truncated, bit-flipped or
// otherwise corrupt input yields an error, never a malformed graph. For
// zero-copy access to a v2 file use OpenMapped instead.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	pre, err := br.Peek(6)
	if err != nil {
		return nil, fmt.Errorf("dataio: truncated binary graph: %w", err)
	}
	if string(pre[0:4]) != binaryMagic {
		return nil, fmt.Errorf("dataio: bad magic %q: not a binary graph file", pre[0:4])
	}
	switch v := binary.LittleEndian.Uint16(pre[4:6]); v {
	case binaryVersion1:
		return readBinaryV1(br)
	case binaryVersion2:
		return readBinaryV2(br)
	default:
		return nil, fmt.Errorf("dataio: unsupported binary graph version %d", v)
	}
}

// readBinaryV1 reads a version-1 file from the start of br.
func readBinaryV1(br *bufio.Reader) (*graph.Graph, error) {
	crc := uint32(0)
	// readFull pulls exactly len(p) payload bytes, folding them into the
	// running checksum.
	readFull := func(p []byte) error {
		if _, err := io.ReadFull(br, p); err != nil {
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				return fmt.Errorf("dataio: truncated binary graph: %w", err)
			}
			return err
		}
		crc = crc32.Update(crc, crcTable, p)
		return nil
	}

	var hdr [24]byte
	if err := readFull(hdr[:]); err != nil {
		return nil, err
	}
	if string(hdr[0:4]) != binaryMagic {
		return nil, fmt.Errorf("dataio: bad magic %q: not a binary graph file", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != binaryVersion1 {
		return nil, fmt.Errorf("dataio: unsupported binary graph version %d (want %d)", v, binaryVersion1)
	}
	if rsv := binary.LittleEndian.Uint16(hdr[6:8]); rsv != 0 {
		return nil, fmt.Errorf("dataio: corrupt header: reserved field %#x", rsv)
	}
	n64 := binary.LittleEndian.Uint64(hdr[8:16])
	e64 := binary.LittleEndian.Uint64(hdr[16:24])
	if n64 > binaryMaxN {
		return nil, fmt.Errorf("dataio: implausible vertex count %d", n64)
	}
	if e64%2 != 0 || e64 > 1<<34 {
		return nil, fmt.Errorf("dataio: implausible entry count %d", e64)
	}
	n, e := int(n64), int(e64)

	// Offsets and entries are read in bounded chunks with capped initial
	// capacity, so a lying header on a truncated file fails at the real end
	// of data instead of pre-allocating the advertised size in one shot.
	// The chunk size divides both record widths (8 and 12), so every chunk
	// holds whole records.
	var buf [24 * 256]byte
	off := make([]int, 0, min(n+1, 1<<22))
	for len(off) < n+1 {
		want := min((n+1-len(off))*8, len(buf))
		if err := readFull(buf[:want]); err != nil {
			return nil, err
		}
		for i := 0; i < want; i += 8 {
			o := binary.LittleEndian.Uint64(buf[i : i+8])
			if o > e64 {
				return nil, fmt.Errorf("dataio: offset %d beyond entry count %d", o, e64)
			}
			off = append(off, int(o))
		}
	}
	// A stored id ≥ 2^31 reads back negative and fails graph.FromCSR's row
	// checks.
	ids := make([]int32, 0, min(e, 1<<22))
	ws := make([]float64, 0, min(e, 1<<22))
	for len(ids) < e {
		want := min((e-len(ids))*12, len(buf))
		if err := readFull(buf[:want]); err != nil {
			return nil, err
		}
		for i := 0; i < want; i += 12 {
			ids = append(ids, int32(binary.LittleEndian.Uint32(buf[i:i+4])))
			ws = append(ws, math.Float64frombits(binary.LittleEndian.Uint64(buf[i+4:i+12])))
		}
	}

	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("dataio: truncated binary graph: missing checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != crc {
		return nil, fmt.Errorf("dataio: binary graph checksum mismatch: file says %#x, content hashes to %#x", got, crc)
	}
	g, err := graph.FromCSR(n, off, ids, ws, nil)
	if err != nil {
		return nil, fmt.Errorf("dataio: corrupt binary graph: %w", err)
	}
	return g, nil
}

// ReadBinaryFile reads a binary-format graph from path.
func ReadBinaryFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadBinary(f)
	return g, pathErr(path, err)
}

// ReadGraphFileAuto reads a graph picking the format by file extension:
// .dcsg is the binary format, .mtx and .mm are MatrixMarket, .snap is a
// SNAP edge list (the original-id table is dropped — ids are the dense
// remap), and anything else is the native TSV edge-list format. This is the
// dispatch behind dcsd -load and the cmd/ tools' format=auto.
func ReadGraphFileAuto(path string) (*graph.Graph, error) {
	switch ext(path) {
	case BinaryExt:
		return ReadBinaryFile(path)
	case ".mtx", ".mm":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err := ReadMatrixMarket(f)
		return g, pathErr(path, err)
	case ".snap":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, _, err := ReadSNAP(f)
		return g, pathErr(path, err)
	default:
		return ReadGraphFile(path)
	}
}

// ext returns the lower-cased final extension of path.
func ext(path string) string {
	return strings.ToLower(filepath.Ext(path))
}

package dataio

import (
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/dcslib/dcs/internal/graph"
)

// This file holds the entry points of the native binary graph format — the
// magic, the extension and the readers — whose one encoding, version 2, is
// laid out and coded in binaryv2.go. The format is the fast path for large
// graphs: the CSR arrays of a graph.Graph are stored verbatim (see
// graph.CSR), so reading skips all text parsing, per-edge sorting and
// duplicate merging. It is the on-disk format of the dcsd persistence layer
// (serve/persist.go) and of the .dcsg files the cmd/ tools read and write by
// extension.
//
// Version 1 files and v2 files with compressed sections, both written by
// earlier releases, are rejected with an error: the version field must be 2
// and the reserved header field zero.

// BinaryExt is the conventional file extension of the binary graph format,
// recognized by the extension-dispatching readers and writers below and by
// the cmd/ tools.
const BinaryExt = ".dcsg"

const (
	binaryMagic = "DCSB"
	// binaryMaxN caps the vertex count accepted from a binary header so a
	// corrupt or hostile size field cannot demand an absurd allocation
	// before the checksum is ever verified.
	binaryMaxN = 1 << 31
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ReadBinary reads a graph in the binary format into an ordinary heap
// graph, verifying the integrity checksums and every structural invariant
// before returning it. A truncated, bit-flipped or otherwise corrupt input
// yields an error, never a malformed graph. It reads the whole input into
// one buffer and runs it through decodeV2, so the graph aliases the buffer
// where the platform allows. The buffer is bounded by the bytes actually
// present, never by the header's claims: a regular file is sized by its
// Stat, any other reader grows the buffer as data arrives, and a header
// describing more than the input holds fails decodeV2's size check before
// any section is read. For zero-copy access to a file use OpenMapped
// instead.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	var data []byte
	var err error
	if size := remaining(r); size < 0 {
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

// remaining returns the bytes left in r when r is a regular file, from its
// Stat and position, and -1 for any other reader.
func remaining(r io.Reader) int64 {
	f, ok := r.(*os.File)
	if !ok {
		return -1
	}
	st, err := f.Stat()
	if err != nil || !st.Mode().IsRegular() {
		return -1
	}
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil || pos > st.Size() {
		return -1
	}
	return st.Size() - pos
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

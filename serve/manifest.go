package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// A manifest file (snapshots/<key>.json, watches/<key>.json) is a record
// file: the magic string, then one frame per commit,
//
//	[u32 LE payload length][u32 LE CRC32-C of payload][JSON payload]
//
// and the last intact frame is the manifest. A commit appends a frame and
// fsyncs the file, so it frees no disk blocks: renaming a new manifest over
// the old one would free the old file's, which costs more than every fsync
// of the commit together on filesystems that discard freed blocks online.
//
// A crash mid-append leaves a torn tail, which the reader stops at: the
// previous record, the last acknowledged commit, is the manifest again.
// Some filesystems extend a file with zeros when a crash lands between the
// size update and the data write; a zero length ends the walk too, since
// no commit writes an empty payload (the CRC32-C of one is 0, so eight
// zero bytes would otherwise pass for an intact frame). A
// file that starts with '{' is a plain-JSON manifest from an earlier build
// and reads as one record. A commit rewrites the file through writeAtomic,
// holding only the new record, when the file is absent, legacy, has bytes
// after its last intact record, or would grow past maxManifestBytes.

const (
	manifestMagic = "DCSMLOG1"
	// maxManifestBytes caps a record file: an append that would cross it
	// rewrites the file instead. It bounds what boot reads per name.
	maxManifestBytes = 64 << 10
	frameHeader      = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordScan describes a manifest file's bytes.
type recordScan struct {
	// last is the payload of the newest intact record, nil when none.
	last []byte
	// end is the length of the intact prefix: the magic plus every whole,
	// CRC-valid frame up to the first one that is not. 0 for a legacy or
	// unrecognised file.
	end int
	// size is the file's length.
	size int
}

// appendable reports whether a commit may append at end: the file is a
// record file with nothing after its last intact record.
func (s recordScan) appendable() bool { return s.end > 0 && s.end == s.size }

// torn reports bytes after the last intact record of a record file: a crash
// mid-append, or damage that cannot be told apart from one.
func (s recordScan) torn() bool { return s.end > 0 && s.end < s.size }

// scanRecords walks data's frames, stopping at the first empty, short or
// CRC-failing one.
func scanRecords(data []byte) recordScan {
	s := recordScan{size: len(data)}
	if len(data) > 0 && data[0] == '{' {
		s.last = data // legacy plain-JSON manifest
		return s
	}
	if !bytes.HasPrefix(data, []byte(manifestMagic)) {
		return s
	}
	s.end = len(manifestMagic)
	for rest := data[s.end:]; len(rest) >= frameHeader; rest = data[s.end:] {
		n := binary.LittleEndian.Uint32(rest)
		if n == 0 || uint64(n) > uint64(len(rest)-frameHeader) {
			break
		}
		payload := rest[frameHeader : frameHeader+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			break
		}
		s.last = payload
		s.end += frameHeader + int(n)
	}
	return s
}

// appendFrame appends payload's frame to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// readRecord reads the manifest file at path and decodes its newest record
// into v. ok is false when the file is absent or that record is not valid
// JSON; scan is meaningful either way, for the commit that follows.
func readRecord(path string, v any) (scan recordScan, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return recordScan{}, false
	}
	scan = scanRecords(data)
	return scan, scan.last != nil && json.Unmarshal(scan.last, v) == nil
}

// commitRecord durably makes v the manifest at path, whose current bytes
// scan describes (read under the same hold of the persister's mutex). It
// appends a frame when the file allows it, else rewrites the file as just
// that frame. Callers hold p.mu.
func commitRecord(path string, scan recordScan, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	frame := appendFrame(nil, payload)
	if scan.appendable() && scan.end+len(frame) <= maxManifestBytes {
		return appendRecord(path, int64(scan.end), frame)
	}
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append([]byte(manifestMagic), frame...))
		return err
	})
}

// appendRecord writes frame at off, the end of path's intact records, and
// fsyncs the file and its directory.
func appendRecord(path string, off int64, frame []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(frame, off)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		// Best effort: drop the partial or unsynced frame, so the file reads
		// as the previous record, the one this failed commit leaves current.
		f.Truncate(off) //nolint:errcheck // the commit already failed
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	// The file's entry may come from a rename whose directory fsync failed;
	// syncing the file alone would not make that entry durable.
	return syncDir(filepath.Dir(path))
}

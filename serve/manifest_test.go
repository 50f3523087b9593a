package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeJSONFile writes v as a plain-JSON manifest, the format earlier builds
// committed before manifests became record files.
func writeJSONFile(path string, v any) error {
	return writeAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(v)
	})
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// holdFile opens path for the rest of the test and returns its identity.
// The open descriptor keeps the inode alive, so a file renamed over path
// can never reuse its number and pass for the same file.
func holdFile(t *testing.T, path string) os.FileInfo {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

func statFile(t *testing.T, path string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// assertOneRecord checks that the manifest at path is a clean record file
// holding exactly one record, i.e. it was just rewritten.
func assertOneRecord(t *testing.T, path string) {
	t.Helper()
	s := scanRecords(readFile(t, path))
	if !s.appendable() || s.end != len(manifestMagic)+frameHeader+len(s.last) {
		t.Fatalf("%s: not a clean one-record file (end %d, size %d, last %d bytes)",
			path, s.end, s.size, len(s.last))
	}
}

// TestManifestCommitsKeepInode pins the point of the record format: a
// commit appends to the name's manifest instead of renaming a new file over
// it, so the manifest stays the same inode across uploads, deletes and
// checkpoints.
func TestManifestCommitsKeepInode(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	defer s.Close()

	snapMan := filepath.Join(dir, "snapshots", "g.json")
	s.Store().Put("g", testGraph(1))
	before := holdFile(t, snapMan)
	s.Store().Put("g", testGraph(2))
	s.Store().Delete("g")
	if !os.SameFile(before, statFile(t, snapMan)) {
		t.Fatal("a snapshot commit replaced the manifest file instead of appending to it")
	}
	if got := scanRecords(readFile(t, snapMan)); !got.appendable() || !strings.Contains(string(got.last), `"deleted":true`) {
		t.Fatalf("newest snapshot record %s, want the tombstone", got.last)
	}

	watchMan := filepath.Join(dir, "watches", "w.json")
	registerTestWatch(t, s, WatchRequest{Name: "w", N: 4})
	before = holdFile(t, watchMan)
	for i := 1; i <= 2; i++ {
		g := GraphJSON{N: 4, Edges: []EdgeJSON{{U: 0, V: 1, W: float64(i)}}}
		observeWatch(t, s, "w", WatchObserveRequest{Graph: &g})
		s.Flush()
	}
	if st := s.PersistStats(); st.SnapshotWrites != 3 || st.WatchCheckpoints != 3 || st.WriteErrors != 0 {
		t.Fatalf("persist stats %+v, want 3 snapshot writes and 3 checkpoints", st)
	}
	if !os.SameFile(before, statFile(t, watchMan)) {
		t.Fatal("a watch checkpoint replaced the manifest file instead of appending to it")
	}
	if man := s.persist.readWatchManifest("w"); man == nil || man.Seq != 3 || man.Step != 2 {
		t.Fatalf("newest watch record %+v, want seq 3 at step 2", man)
	}
}

// twoVersions commits g at versions 1 and 2 and returns both graph files'
// bytes and the final manifest.
func twoVersions(t *testing.T) (graphs map[string][]byte, manifest []byte) {
	t.Helper()
	dir := t.TempDir()
	s := openTest(t, dir)
	defer s.Close()
	snapDir := filepath.Join(dir, "snapshots")
	s.Store().Put("g", testGraph(1))
	v1 := readFile(t, filepath.Join(snapDir, "g.v1.dcsg"))
	s.Store().Put("g", testGraph(2, 3))
	return map[string][]byte{
		"g.v1.dcsg": v1,
		"g.v2.dcsg": readFile(t, filepath.Join(snapDir, "g.v2.dcsg")),
	}, readFile(t, filepath.Join(snapDir, "g.json"))
}

// splitRecords returns the payloads of a clean two-record manifest.
func splitRecords(t *testing.T, manifest []byte) [2][]byte {
	t.Helper()
	s := scanRecords(manifest)
	lastStart := len(manifest) - frameHeader - len(s.last)
	prev := scanRecords(manifest[:lastStart])
	if s.end != len(manifest) || prev.end != lastStart || prev.last == nil ||
		lastStart != len(manifestMagic)+frameHeader+len(prev.last) {
		t.Fatalf("manifest of %d bytes is not two clean records", len(manifest))
	}
	return [2][]byte{prev.last, s.last}
}

// writeSnapDir writes files into dir/snapshots.
func writeSnapDir(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	snapDir := filepath.Join(dir, "snapshots")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(snapDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManifestCrashCutRestoresPrevious cuts a two-version manifest at every
// byte inside its last record, as a crash mid-append leaves it with both
// versions' graph files on disk. Every cut, one snapshot name each, boots
// at version 1, the last acknowledged commit, spares the name's graph
// files, and leaves a manifest the next commit rewrites.
func TestManifestCrashCutRestoresPrevious(t *testing.T) {
	graphs, manifest := twoVersions(t)
	records := splitRecords(t, manifest)
	// renamed re-encodes the two records for snapshot name, whose graph
	// files are name.v1.dcsg and name.v2.dcsg; it returns the manifest and
	// the length of its last frame.
	renamed := func(name string) (file []byte, lastFrame int, graphFiles map[string][]byte) {
		file = []byte(manifestMagic)
		graphFiles = map[string][]byte{}
		for i, r := range records {
			var m snapManifest
			if err := json.Unmarshal(r, &m); err != nil {
				t.Fatal(err)
			}
			graphFiles[name+strings.TrimPrefix(m.File, "g")] = graphs[m.File]
			m.Name, m.File = name, name+strings.TrimPrefix(m.File, "g")
			payload, _ := json.Marshal(m)
			file = appendFrame(file, payload)
			if i == 1 {
				lastFrame = frameHeader + len(payload)
			}
		}
		return file, lastFrame, graphFiles
	}
	dir := t.TempDir()
	_, lastFrame, _ := renamed("c000")
	cutName := func(off int) string { return fmt.Sprintf("c%03d", off) }
	for off := 1; off < lastFrame; off++ {
		file, _, files := renamed(cutName(off))
		files[cutName(off)+".json"] = file[:len(file)-lastFrame+off]
		writeSnapDir(t, dir, files)
	}

	s := openTest(t, dir)
	defer s.Close()
	if st := s.PersistStats(); st.SnapshotsRestored != lastFrame-1 || st.RestoreErrors != 0 {
		t.Fatalf("restore stats %+v, want %d restored", st, lastFrame-1)
	}
	snapDir := filepath.Join(dir, "snapshots")
	for off := 1; off < lastFrame; off++ {
		name := cutName(off)
		snap, ok := s.Store().Get(name)
		if !ok || snap.Version != 1 || snapGraph(t, snap).Weight(0, 1) != 1 {
			t.Fatalf("cut %d: restored %v %+v, want version 1", off, ok, snap)
		}
		for _, f := range []string{name + ".v1.dcsg", name + ".v2.dcsg"} {
			if _, err := os.Stat(filepath.Join(snapDir, f)); err != nil {
				t.Fatalf("cut %d: %s swept despite the torn manifest: %v", off, f, err)
			}
		}
		if scan := scanRecords(readFile(t, filepath.Join(snapDir, name+".json"))); !scan.torn() || scan.appendable() {
			t.Fatalf("cut %d: scan %+v, want a torn file no commit appends to", off, scan)
		}
	}
	// The next Put rewrites the file clean: a cut inside the length field,
	// one inside the CRC and one inside the payload.
	for _, off := range []int{1, 5, lastFrame - 1} {
		info, err := s.Store().Put(cutName(off), testGraph(7))
		if err != nil || info.Version != 2 {
			t.Fatalf("cut %d: next put version %d (%v), want 2", off, info.Version, err)
		}
		assertOneRecord(t, filepath.Join(snapDir, cutName(off)+".json"))
	}
}

// bootTorn boots dir, whose g.json has bytes after its last intact record,
// and checks that version want is served, the key's graph files survived
// the sweep, and the next Put rewrites the manifest as one clean record.
func bootTorn(t *testing.T, dir string, want int, weight float64) {
	t.Helper()
	s := openTest(t, dir)
	defer s.Close()
	snap, ok := s.Store().Get("g")
	if !ok || snap.Version != want || snapGraph(t, snap).Weight(0, 1) != weight {
		t.Fatalf("restored %v %+v, want version %d", ok, snap, want)
	}
	if st := s.PersistStats(); st.SnapshotsRestored != 1 || st.RestoreErrors != 0 {
		t.Fatalf("restore stats %+v", st)
	}
	snapDir := filepath.Join(dir, "snapshots")
	for _, f := range []string{"g.v1.dcsg", "g.v2.dcsg"} {
		if _, err := os.Stat(filepath.Join(snapDir, f)); err != nil {
			t.Fatalf("%s swept despite the torn manifest: %v", f, err)
		}
	}
	info, err := s.Store().Put("g", testGraph(7))
	if err != nil || info.Version != want+1 {
		t.Fatalf("next put: version %d (%v), want %d", info.Version, err, want+1)
	}
	assertOneRecord(t, filepath.Join(snapDir, "g.json"))
}

// TestManifestTrailingGarbage boots manifests with bytes after an intact
// final record: the record is restored and the key's files are spared.
func TestManifestTrailingGarbage(t *testing.T) {
	graphs, manifest := twoVersions(t)
	for _, junk := range []string{
		"\x00",
		"garbage after the last record",
		"\xff\xff\xff\xff\x00\x00\x00\x00",     // length past the end
		"\x04\x00\x00\x00\x00\x00\x00\x00junk", // whole frame, wrong CRC
		strings.Repeat("\x00", 8),              // zero-filled extension: [len 0][crc 0]
		strings.Repeat("\x00", 16),
	} {
		dir := t.TempDir()
		files := maps.Clone(graphs)
		files["g.json"] = append(bytes.Clone(manifest), junk...)
		writeSnapDir(t, dir, files)
		bootTorn(t, dir, 2, 2)
	}
	// The last append's size update reached the disk and its data did not:
	// the frame reads back as zeros, and version 1 is the manifest again.
	dir := t.TempDir()
	files := maps.Clone(graphs)
	lastStart := len(manifest) - frameHeader - len(splitRecords(t, manifest)[1])
	files["g.json"] = append(bytes.Clone(manifest[:lastStart]), make([]byte, len(manifest)-lastStart)...)
	writeSnapDir(t, dir, files)
	bootTorn(t, dir, 1, 1)

	// A watch manifest gets the same treatment.
	dir = t.TempDir()
	s := openTest(t, dir)
	registerTestWatch(t, s, WatchRequest{Name: "w", N: 4})
	g := GraphJSON{N: 4, Edges: []EdgeJSON{{U: 0, V: 1, W: 3}}}
	observeWatch(t, s, "w", WatchObserveRequest{Graph: &g})
	s.Flush()
	s.Close()
	watchDir := filepath.Join(dir, "watches")
	stray := filepath.Join(watchDir, "w.v9.expect.dcsg") // unreferenced by any record
	if err := os.WriteFile(stray, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(watchDir, "w.json"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	wt, ok := s2.watches.get("w")
	if !ok || wt.step != 1 {
		t.Fatalf("watch behind a torn manifest not restored at step 1: %v", ok)
	}
	if st := s2.PersistStats(); st.WatchesRestored != 1 || st.RestoreErrors != 0 {
		t.Fatalf("restore stats %+v", st)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("key file swept despite the torn manifest: %v", err)
	}
	observeWatch(t, s2, "w", WatchObserveRequest{Graph: &g})
	s2.Flush()
	assertOneRecord(t, filepath.Join(watchDir, "w.json"))
}

// TestManifestLegacyJSONConverted boots a plain-JSON manifest as earlier
// builds wrote it; the name's first new commit rewrites it as a record file.
func TestManifestLegacyJSONConverted(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("g", testGraph(5))
	s.Close()
	mpath := filepath.Join(dir, "snapshots", "g.json")
	var m snapManifest
	if _, ok := readRecord(mpath, &m); !ok {
		t.Fatal("committed manifest unreadable")
	}
	if err := writeJSONFile(mpath, m); err != nil {
		t.Fatal(err)
	}
	if data := readFile(t, mpath); data[0] != '{' {
		t.Fatalf("legacy manifest starts with %q", data[0])
	}

	s2 := openTest(t, dir)
	snap, ok := s2.Store().Get("g")
	if !ok || snap.Version != 1 || snapGraph(t, snap).Weight(0, 1) != 5 {
		t.Fatalf("legacy manifest restored %v %+v", ok, snap)
	}
	if info, _ := s2.Store().Put("g", testGraph(6)); info.Version != 2 {
		t.Fatalf("put after legacy restore: version %d, want 2", info.Version)
	}
	s2.Close()
	assertOneRecord(t, mpath)

	s3 := openTest(t, dir)
	defer s3.Close()
	snap, ok = s3.Store().Get("g")
	if !ok || snap.Version != 2 || snapGraph(t, snap).Weight(0, 1) != 6 {
		t.Fatalf("converted manifest restored %v %+v", ok, snap)
	}
}

// TestManifestCompaction fills a manifest to exactly maxManifestBytes with
// appends; the next Put, which would cross the cap, rewrites the file as
// one record, and a restart restores that newest version.
func TestManifestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("g", testGraph(1))
	mpath := filepath.Join(dir, "snapshots", "g.json")
	created := holdFile(t, mpath)

	// Re-commit version 1's record (graph file unchanged) while one more
	// copy still leaves room for the padded record, then top the file up to
	// exactly the cap with a record padded by a field the decoder ignores.
	// The unpadded record is longer than the copies by its empty pad field,
	// and its length varies between runs (the marshalled UpdatedAt drops
	// trailing zero nanoseconds), so the loop reserves room for it exactly.
	var m snapManifest
	scan, ok := readRecord(mpath, &m)
	if !ok {
		t.Fatal("committed manifest unreadable")
	}
	type padded struct {
		snapManifest
		Pad string `json:"pad"`
	}
	base, _ := json.Marshal(padded{snapManifest: m})
	for scan.size+len(appendFrame(nil, scan.last))+frameHeader+len(base) <= maxManifestBytes {
		if err := commitRecord(mpath, scan, m); err != nil {
			t.Fatal(err)
		}
		size := scan.size
		if scan, _ = readRecord(mpath, &m); scan.size <= size {
			t.Fatalf("commit to a %d-byte manifest did not append", size)
		}
	}
	pad := maxManifestBytes - scan.size - frameHeader - len(base)
	if err := commitRecord(mpath, scan, padded{m, strings.Repeat("x", pad)}); err != nil {
		t.Fatal(err)
	}
	full := statFile(t, mpath)
	if full.Size() != maxManifestBytes || !os.SameFile(created, full) {
		t.Fatalf("filled manifest: %d bytes (same file %v), want %d appended",
			full.Size(), os.SameFile(created, full), maxManifestBytes)
	}

	if info, _ := s.Store().Put("g", testGraph(2)); info.Version != 2 {
		t.Fatalf("put: version %d, want 2", info.Version)
	}
	s.Close()
	assertOneRecord(t, mpath)

	s2 := openTest(t, dir)
	defer s2.Close()
	snap, ok := s2.Store().Get("g")
	if !ok || snap.Version != 2 || snapGraph(t, snap).Weight(0, 1) != 2 {
		t.Fatalf("after compaction restored %v %+v", ok, snap)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshots", "g.v1.dcsg")); !os.IsNotExist(err) {
		t.Fatalf("superseded graph file still present (%v)", err)
	}
}

// FuzzManifestRecords checks the frame reader on arbitrary bytes: it never
// panics, never returns a record whose CRC fails, and a frame appended to
// the prefix it accepted — or written as a fresh file, as a rewrite does —
// reads back as the newest record.
func FuzzManifestRecords(f *testing.F) {
	rec := func(payloads ...string) []byte {
		b := []byte(manifestMagic)
		for _, p := range payloads {
			b = appendFrame(b, []byte(p))
		}
		return b
	}
	two := rec(`{"name":"g","version":1}`, `{"name":"g","version":2}`)
	f.Add([]byte(nil), []byte(`{}`))
	f.Add([]byte(manifestMagic), []byte(`{"name":"g"}`))
	f.Add(two, []byte(`{"name":"g","version":3}`))
	f.Add(two[:len(two)-3], []byte(``))
	flipped := bytes.Clone(two)
	flipped[len(flipped)-2] ^= 1
	f.Add(flipped, []byte(`{}`))
	f.Add(append(rec("a"), 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4), []byte("b"))
	f.Add([]byte(`{"name":"legacy","version":4}`), []byte(`{"name":"g"}`))
	f.Add([]byte("DCSMLOG"), []byte("x"))
	f.Fuzz(func(t *testing.T, data, payload []byte) {
		s := scanRecords(data)
		if s.size != len(data) || s.end < 0 || s.end > len(data) {
			t.Fatalf("scan %+v of %d bytes", s, len(data))
		}
		if s.last != nil && len(s.last) == 0 {
			t.Fatal("returned an empty record")
		}
		if s.end > 0 {
			if !bytes.HasPrefix(data, []byte(manifestMagic)) {
				t.Fatal("accepted a prefix without the magic")
			}
			if s.last != nil {
				// The newest record is the tail of the accepted prefix;
				// its header must describe it.
				h := data[s.end-len(s.last)-frameHeader:]
				if int(binary.LittleEndian.Uint32(h)) != len(s.last) ||
					binary.LittleEndian.Uint32(h[4:]) != crc32.Checksum(s.last, castagnoli) {
					t.Fatal("returned a record whose frame header does not match it")
				}
			}
		}

		var next []byte
		if s.end > 0 {
			next = bytes.Clone(data[:s.end])
		} else {
			next = []byte(manifestMagic)
		}
		next = appendFrame(next, payload)
		got := scanRecords(next)
		if len(payload) == 0 {
			// No commit writes an empty payload; its frame is eight zero
			// bytes, the zero fill a crash can leave, and ends the walk.
			if want := max(s.end, len(manifestMagic)); got.end != want || got.appendable() {
				t.Fatalf("empty frame accepted: %+v", got)
			}
			return
		}
		if !bytes.Equal(got.last, payload) || got.last == nil || !got.appendable() {
			t.Fatalf("appended %q, read back %+v", payload, got)
		}
	})
}

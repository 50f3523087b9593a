package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// plantRecord makes v the manifest of key in sub ("snapshots" or
// "watches") of the data directory dir.
func plantRecord(t *testing.T, dir, sub, key string, v any) {
	t.Helper()
	if err := writeJSONFile(filepath.Join(dir, sub, key+".json"), v); err != nil {
		t.Fatal(err)
	}
}

// watchRecord reads the newest record of key's watch manifest under dir.
func watchRecord(t *testing.T, dir, key string) watchManifest {
	t.Helper()
	var m watchManifest
	if _, ok := readRecord(filepath.Join(dir, "watches", key+".json"), &m); !ok {
		t.Fatalf("no readable manifest for watch key %q", key)
	}
	return m
}

// TestPersistRecordFilesStayInTheirKey plants manifest records whose file
// fields name files that are not their key's own: another key's graph, a
// watch manifest in the other directory, and a file outside the data
// directory, plus a record of another name. Boot counts each as a restore
// error, and later puts, deletes,
// registrations and watch deletes under those names, each reading a planted
// record first, leave every named file in place.
func TestPersistRecordFilesStayInTheirKey(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "data")
	s := openTest(t, dir)
	if _, err := s.Store().Put("keep", testGraph(1, 2)); err != nil {
		t.Fatal(err)
	}
	registerTestWatch(t, s, WatchRequest{Name: "w", N: 4})
	s.Close()

	keepFile := filepath.Join(dir, "snapshots", "keep.v1.dcsg")
	watchFile := filepath.Join(dir, "watches", "w.json")
	outside := filepath.Join(root, "outside.dcsg")
	graphBytes, manifestBytes := readFile(t, keepFile), readFile(t, watchFile)
	// A valid graph outside the data directory: reading it would succeed.
	if err := os.WriteFile(outside, graphBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	meta := &snapMeta{N: 3, M: 2, TotalWeight: 3}
	snapRecords := map[string]snapManifest{
		"g": {Name: "g", Version: 3, File: "../watches/w.json", Meta: meta},
		"h": {Name: "h", Version: 2, File: "../../outside.dcsg", Meta: meta},
		"k": {Name: "k", Version: 1, File: "keep.v1.dcsg", Meta: meta},
		"x": {Name: "keep", Version: 9, File: "x.v9.dcsg", Meta: meta}, // another name's record
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshots", "x.v9.dcsg"), graphBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	badWatch := watchRecord(t, dir, "w")
	badWatch.Name = "v"
	badWatch.ExpectFile = "../snapshots/keep.v1.dcsg"
	badWatch.LastFile = "../../outside.dcsg"
	plantAll := func() {
		for key, m := range snapRecords {
			plantRecord(t, dir, "snapshots", key, m)
		}
		plantRecord(t, dir, "watches", "v", badWatch)
	}
	plantAll()

	s2 := openTest(t, dir)
	if st := s2.PersistStats(); st.RestoreErrors != 5 || st.SnapshotsRestored != 1 || st.WatchesRestored != 1 {
		t.Fatalf("boot stats %+v: want 5 restore errors, keep and w restored", st)
	}
	if snap, ok := s2.Store().Get("keep"); !ok || snap.Version != 1 {
		t.Fatalf("keep: %+v, want version 1 from its own record", snap)
	}
	for key := range snapRecords {
		if _, ok := s2.Store().Get(key); ok {
			t.Fatalf("snapshot %q restored from a file that is not its own", key)
		}
		if _, err := s2.Store().Put(key, testGraph(5)); err != nil {
			t.Fatal(err)
		}
	}
	registerTestWatch(t, s2, WatchRequest{Name: "v", N: 4})
	plantAll() // deletes read the planted records again
	for key := range snapRecords {
		if ok, err := s2.Store().Delete(key); !ok || err != nil {
			t.Fatalf("delete %q: %v %v", key, ok, err)
		}
	}
	if code := doJSON(t, s2, http.MethodDelete, "/v1/watches/v", nil, nil); code != http.StatusOK {
		t.Fatalf("delete watch v: status %d", code)
	}
	s2.Close()

	for path, want := range map[string][]byte{keepFile: graphBytes, outside: graphBytes, watchFile: manifestBytes} {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed or removed (err %v)", path, err)
		}
	}
	s3 := openTest(t, dir)
	if st := s3.PersistStats(); st.RestoreErrors != 0 || st.SnapshotsRestored != 1 || st.WatchesRestored != 1 {
		t.Fatalf("reboot stats %+v: want keep and w restored, no errors", st)
	}
}

// TestWatchRestoreAppliesRegistrationLimits checkpoints a valid watch, then
// boots once per manifest field set to a value registration refuses: each
// boot counts one restore error and restores no watch.
func TestWatchRestoreAppliesRegistrationLimits(t *testing.T) {
	seed := t.TempDir()
	s := openTest(t, seed)
	registerTestWatch(t, s, WatchRequest{Name: "w", N: 4})
	s.Close()
	valid := watchRecord(t, seed, "w")
	files := map[string][]byte{}
	for _, f := range []string{valid.ExpectFile, valid.LastFile} {
		files[f] = readFile(t, filepath.Join(seed, "watches", f))
	}

	cases := map[string]func(m *watchManifest){
		"name empty":           func(m *watchManifest) { m.Name = "" },
		"name of another key":  func(m *watchManifest) { m.Name = "other" },
		"name with slash":      func(m *watchManifest) { m.Name = "a/b" },
		"name too long":        func(m *watchManifest) { m.Name = strings.Repeat("x", maxWatchKey+1) },
		"n zero":               func(m *watchManifest) { m.N = 0 },
		"n negative":           func(m *watchManifest) { m.N = -4 },
		"measure unknown":      func(m *watchManifest) { m.Measure = "ratio" },
		"measure empty":        func(m *watchManifest) { m.Measure = "" },
		"solve timeout < 0":    func(m *watchManifest) { m.SolveTimeoutMS = -1 },
		"solve timeout > max":  func(m *watchManifest) { m.SolveTimeoutMS = 2 * maxSolveTimeoutMS },
		"report cap zero":      func(m *watchManifest) { m.ReportCap = 0 },
		"report cap above max": func(m *watchManifest) { m.ReportCap = maxWatchReports + 1 },
		"resync negative":      func(m *watchManifest) { m.ResyncEvery = -1 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, "watches"), 0o755); err != nil {
				t.Fatal(err)
			}
			for f, data := range files {
				if err := os.WriteFile(filepath.Join(dir, "watches", f), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			m := valid
			mutate(&m)
			plantRecord(t, dir, "watches", "w", m)
			s := openTest(t, dir)
			if st := s.PersistStats(); st.RestoreErrors != 1 || st.WatchesRestored != 0 {
				t.Fatalf("stats %+v: want 1 restore error, no watch restored", st)
			}
			if infos := s.watches.list(); len(infos) != 0 {
				t.Fatalf("restored %+v", infos)
			}
		})
	}

	// The unmutated manifest restores, so each failure above is its field's.
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(seed)); err != nil {
		t.Fatal(err)
	}
	if st := openTest(t, dir).PersistStats(); st.RestoreErrors != 0 || st.WatchesRestored != 1 {
		t.Fatalf("valid manifest: stats %+v", st)
	}
}

// FuzzWatchManifest boots a server over a data directory whose watch
// manifest is fuzzed bytes, next to a real checkpoint's graph pair. Valid
// graph files the manifest may name instead sit outside its key: snapshot
// "s" in snapshots/, and a copy outside the data directory. Booting must
// not panic, every restored watch must pass the registration limits and
// have read only its key's own files, and deleting the watch afterwards
// must leave both outside files in place.
func FuzzWatchManifest(f *testing.F) {
	seed := f.TempDir()
	checkpointSeed(f, seed)
	mpath := filepath.Join("watches", "w.json")
	real, err := os.ReadFile(filepath.Join(seed, mpath))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	var valid watchManifest
	if _, ok := readRecord(filepath.Join(seed, mpath), &valid); !ok {
		f.Fatal("seed checkpoint has no readable manifest")
	}
	for _, mutate := range []func(m *watchManifest){
		func(m *watchManifest) {},
		func(m *watchManifest) { m.ExpectFile = "../snapshots/s.v1.dcsg" },
		func(m *watchManifest) { m.LastFile = "../../outside.dcsg" },
		func(m *watchManifest) { m.ReportCap = maxWatchReports + 1 },
		func(m *watchManifest) { m.Measure = "ratio" },
		func(m *watchManifest) { m.N = 1 << 40 },
	} {
		m := valid
		mutate(&m)
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	sentinel, err := os.ReadFile(filepath.Join(seed, "watches", valid.ExpectFile))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, manifest []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "data")
		if err := os.CopyFS(dir, os.DirFS(seed)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, mpath), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		outside := map[string][]byte{filepath.Join(root, "outside.dcsg"): sentinel}
		snapFile := filepath.Join(dir, "snapshots", "s.v1.dcsg")
		outside[snapFile] = readFile(t, snapFile)
		for path, data := range outside {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var m watchManifest
		readRecord(filepath.Join(dir, mpath), &m)

		s, err := Open(Config{CheckpointInterval: -1}, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, info := range s.watches.list() {
			if herr := checkWatchConfig(info.Name, info.N, info.Measure, info.SolveTimeoutMS, info.ReportCap, info.ResyncEvery); herr != nil {
				t.Fatalf("restored watch %+v fails registration: %s", info, herr.msg)
			}
			if !ownFile("w", m.ExpectFile) || !ownFile("w", m.LastFile) {
				t.Fatalf("restored watch from files %q, %q", m.ExpectFile, m.LastFile)
			}
			s.watches.remove(info.Name)
		}
		s.persist.deleteWatch("w")
		for path, want := range outside {
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s changed or removed (err %v)", path, err)
			}
		}
	})
}

// checkpointSeed leaves a real checkpoint under dir: snapshot "s", and
// watch "w", registered, observed twice and flushed.
func checkpointSeed(tb testing.TB, dir string) {
	s, err := Open(Config{CheckpointInterval: -1}, dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	for _, req := range []struct{ path, body string }{
		{"/v1/snapshots", `{"name":"s","graph":{"n":4,"edges":[{"u":0,"v":3,"w":2}]}}`},
		{"/v1/watches", `{"name":"w","n":4,"lambda":0.5,"min_density":1,"reports":8}`},
		{"/v1/watches/w/observe", `{"graph":{"n":4,"edges":[{"u":0,"v":1,"w":1},{"u":1,"v":2,"w":2}]}}`},
		{"/v1/watches/w/observe", `{"delta":[{"u":0,"v":2,"w":6},{"u":2,"v":3,"w":6}]}`},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("POST %s: status %d: %s", req.path, rec.Code, rec.Body)
		}
	}
	s.Flush()
}

package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	dcs "github.com/dcslib/dcs"
)

// openTest opens a persistent server over dir with the periodic checkpoint
// loop effectively off (tests flush explicitly, so timing never matters).
// The server is closed at test end if the test has not closed it.
func openTest(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := Open(Config{CheckpointInterval: -1}, dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(s.Close)
	return s
}

func testGraph(weights ...float64) *dcs.Graph {
	b := dcs.NewBuilder(len(weights) + 1)
	for i, w := range weights {
		b.AddEdge(i, i+1, w)
	}
	return b.Build()
}

// snapGraph acquires a snapshot's graph for assertions. The pin is released
// at test end — plenty, since tests never run a memory budget small enough
// to need the slot back.
func snapGraph(t *testing.T, s *Snapshot) *dcs.Graph {
	t.Helper()
	g, release, err := s.Acquire()
	if err != nil {
		t.Fatalf("Acquire(%s v%d): %v", s.Name, s.Version, err)
	}
	t.Cleanup(release)
	return g
}

func TestPersistSnapshotSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("alpha", testGraph(1.5, -2.25, 1e-300))
	s.Store().Put("beta", testGraph(7))
	s.Store().Put("beta", testGraph(8, 9)) // replace: beta is version 2
	// No Close, no Flush: snapshots are write-through, so simply dropping
	// the process (kill -9) after Put returns must lose nothing.

	s2 := openTest(t, dir)
	defer s2.Close()
	st := s2.PersistStats()
	if !st.Enabled || st.SnapshotsRestored != 2 || st.RestoreErrors != 0 {
		t.Fatalf("restore stats %+v", st)
	}
	a, ok := s2.Store().Get("alpha")
	if !ok || a.Version != 1 || snapGraph(t, a).Weight(2, 3) != 1e-300 {
		t.Fatalf("alpha restored wrong: %+v", a)
	}
	b, ok := s2.Store().Get("beta")
	if !ok || b.Version != 2 || snapGraph(t, b).N() != 3 || snapGraph(t, b).Weight(1, 2) != 9 {
		t.Fatalf("beta restored wrong: %+v", b)
	}
	// Further puts continue the version sequence.
	if info, _ := s2.Store().Put("beta", testGraph(1)); info.Version != 3 {
		t.Fatalf("post-restart put: version %d, want 3", info.Version)
	}
}

func TestPersistVersionsSurviveDeleteAndRestart(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("g", testGraph(1))
	s.Store().Put("g", testGraph(2))
	s.Store().Delete("g")

	s2 := openTest(t, dir)
	defer s2.Close()
	if _, ok := s2.Store().Get("g"); ok {
		t.Fatal("deleted snapshot came back")
	}
	// The tombstone preserved the counter: a re-created name must NOT mint a
	// second "version 1" (diff-cache ABA protection).
	if info, _ := s2.Store().Put("g", testGraph(3)); info.Version != 3 {
		t.Fatalf("re-created after delete+restart: version %d, want 3", info.Version)
	}
}

func TestPersistCrashDebrisRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("g", testGraph(4.5))

	// Simulate a crash between the new version's graph-file rename and the
	// manifest rename: an orphaned v2 graph plus a stray temp file.
	snapDir := filepath.Join(dir, "snapshots")
	orphan := filepath.Join(snapDir, "g.v2.dcsg")
	if err := os.WriteFile(orphan, []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(snapDir, "g.json.tmp")
	if err := os.WriteFile(tmp, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	snap, ok := s2.Store().Get("g")
	if !ok || snap.Version != 1 || snapGraph(t, snap).Weight(0, 1) != 4.5 {
		t.Fatalf("last committed version not recovered: %+v", snap)
	}
	if st := s2.PersistStats(); st.RestoreErrors != 0 {
		t.Fatalf("clean debris recovery counted errors: %+v", st)
	}
	for _, f := range []string{orphan, tmp} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("crash debris %s not swept", f)
		}
	}
}

func TestPersistCorruptGraphFileDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("good", testGraph(1))
	s.Store().Put("bad", testGraph(2))

	// Flip a byte inside the committed graph file: the codec checksum must
	// catch it, the snapshot is skipped, the rest of the store boots.
	badFile := filepath.Join(dir, "snapshots", "bad.v1.dcsg")
	data, err := os.ReadFile(badFile)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-7] ^= 0x10
	if err := os.WriteFile(badFile, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	if _, ok := s2.Store().Get("good"); !ok {
		t.Fatal("intact snapshot lost")
	}
	if _, ok := s2.Store().Get("bad"); ok {
		t.Fatal("corrupt snapshot restored")
	}
	st := s2.PersistStats()
	if st.SnapshotsRestored != 1 || st.RestoreErrors != 1 {
		t.Fatalf("stats %+v, want 1 restored / 1 error", st)
	}
	// The corrupt name's version counter still survived via its manifest.
	if info, _ := s2.Store().Put("bad", testGraph(3)); info.Version != 2 {
		t.Fatalf("version after corrupt restore: %d, want 2", info.Version)
	}
}

func TestPersistStaleDeleteDoesNotClobberRecreation(t *testing.T) {
	// The hooks run outside the store lock, so a delete and a re-creation
	// racing can reach the persister out of order: save(v2) first, then the
	// delete that observed v1. The stale delete must be discarded — a
	// tombstone here would destroy the live v2 and regress the counter.
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("g", testGraph(1))
	snap, _ := s.Store().Get("g")
	g2 := testGraph(2)
	s.persist.saveSnapshot(newSnapshot("g", 2, g2, snap.UpdatedAt), g2)
	s.persist.deleteSnapshot("g", 1) // stale: v2 is already durable

	s2 := openTest(t, dir)
	defer s2.Close()
	got, ok := s2.Store().Get("g")
	if !ok || got.Version != 2 || snapGraph(t, got).Weight(0, 1) != 2 {
		t.Fatalf("stale delete clobbered the re-created snapshot: %v %+v", ok, got)
	}
}

func TestPersistCorruptManifestSparesGraphFile(t *testing.T) {
	// A corrupt ~200-byte manifest must not cause the sweep to delete the
	// intact, checksummed graph it references — the payload stays on disk
	// for manual recovery even though the snapshot cannot be restored.
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("g", testGraph(3))
	manifest := filepath.Join(dir, "snapshots", "g.json")
	if err := os.WriteFile(manifest, []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	if _, ok := s2.Store().Get("g"); ok {
		t.Fatal("snapshot restored from a corrupt manifest")
	}
	if st := s2.PersistStats(); st.RestoreErrors != 1 {
		t.Fatalf("stats %+v, want 1 restore error", st)
	}
	for _, f := range []string{manifest, filepath.Join(dir, "snapshots", "g.v1.dcsg")} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("%s swept despite the unreadable manifest: %v", f, err)
		}
	}
}

func TestPersistWriteFailureSurfaces(t *testing.T) {
	// When the write-through mirror fails, the upload must NOT answer 200:
	// that would promise a durability the disk refused. (The in-memory
	// registry still takes the snapshot — readers keep working.)
	dir := t.TempDir()
	s := openTest(t, dir)
	defer s.Close()
	// Replace the snapshots directory with a file: every temp-file create
	// under it now fails with ENOTDIR, even when the tests run as root.
	snapDir := filepath.Join(dir, "snapshots")
	if err := os.RemoveAll(snapDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapDir, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	body := SnapshotRequest{Name: "g", GraphJSON: GraphJSON{N: 2, Edges: []EdgeJSON{{U: 0, V: 1, W: 1}}}}
	if code := doJSON(t, s, http.MethodPost, "/v1/snapshots", body, nil); code != http.StatusInternalServerError {
		t.Fatalf("upload with a broken mirror answered %d, want 500", code)
	}
	if st := s.PersistStats(); st.WriteErrors == 0 {
		t.Fatalf("write failure not counted: %+v", st)
	}
	if _, ok := s.Store().Get("g"); !ok {
		t.Fatal("in-memory registry should still hold the snapshot")
	}
	// Watch registration rolls back entirely on a persist failure.
	wdir := filepath.Join(dir, "watches")
	if err := os.RemoveAll(wdir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wdir, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, s, http.MethodPost, "/v1/watches", WatchRequest{Name: "w", N: 3}, nil); code != http.StatusInternalServerError {
		t.Fatalf("watch registration with a broken mirror answered %d, want 500", code)
	}
	if _, ok := s.watches.get("w"); ok {
		t.Fatal("failed registration left the watch registered")
	}
}

func TestPersistEscapedSnapshotNames(t *testing.T) {
	dir := t.TempDir()
	name := ".. spaced%name\x01" // hostile but '/'-free, as the API enforces
	s := openTest(t, dir)
	s.Store().Put(name, testGraph(6))

	s2 := openTest(t, dir)
	defer s2.Close()
	snap, ok := s2.Store().Get(name)
	if !ok || snapGraph(t, snap).Weight(0, 1) != 6 {
		t.Fatalf("escaped name not restored: %v %+v", ok, snap)
	}
}

// TestWatchCheckpointResume is the acceptance test for watch durability: a
// restarted watch's next observe must mine against the checkpointed
// expectation, not a cold tracker. A twin server that never restarts feeds
// on the same deterministic stream; after the restart the two must produce
// bitwise-identical reports (the binary codec round-trips the EWMA state
// exactly).
func TestWatchCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	clique := []int{2, 5, 7, 11}
	snaps := watchStream(42, 24, 6, 4, clique)
	req := WatchRequest{Name: "w", N: 24, Lambda: 0.5, MinDensity: 3}

	restarted := openTest(t, dir)
	twin := New(Config{})
	registerTestWatch(t, restarted, req)
	registerTestWatch(t, twin, req)
	for _, g := range snaps[:4] {
		g := g
		observeWatch(t, restarted, "w", WatchObserveRequest{Graph: &g})
		observeWatch(t, twin, "w", WatchObserveRequest{Graph: &g})
	}
	restarted.Flush()
	restarted.Close()

	s2 := openTest(t, dir)
	defer s2.Close()
	if st := s2.PersistStats(); st.WatchesRestored != 1 {
		t.Fatalf("stats %+v, want 1 watch restored", st)
	}
	var infos []WatchInfo
	if code := doJSON(t, s2, http.MethodGet, "/v1/watches", nil, &infos); code != http.StatusOK || len(infos) != 1 {
		t.Fatalf("watch list after restart: %d %v", code, infos)
	}
	if infos[0].Name != "w" || infos[0].Step != 4 || infos[0].Lambda != 0.5 || infos[0].MinDensity != 3 {
		t.Fatalf("restored watch info %+v", infos[0])
	}

	// The report ring survived the restart.
	var ring WatchReportsResponse
	if code := doJSON(t, s2, http.MethodGet, "/v1/watches/w/reports", nil, &ring); code != http.StatusOK {
		t.Fatalf("reports after restart: %d", code)
	}
	if len(ring.Reports) != 4 || ring.Reports[3].Step != 4 {
		t.Fatalf("restored ring %+v", ring.Reports)
	}

	for i, g := range snaps[4:] {
		g := g
		got := observeWatch(t, s2, "w", WatchObserveRequest{Graph: &g})
		want := observeWatch(t, twin, "w", WatchObserveRequest{Graph: &g})
		if got.Step != want.Step || got.Anomalous != want.Anomalous ||
			math.Float64bits(got.Contrast) != math.Float64bits(want.Contrast) {
			t.Fatalf("post-restart tick %d diverged: got %+v, want %+v", i, got, want)
		}
	}
	// Sanity on the scenario itself: the clique planted at step 4 was
	// absorbed pre-restart, so the restored expectation must NOT re-report
	// it — a cold tracker would.
	cold := New(Config{})
	registerTestWatch(t, cold, req)
	g := snaps[4]
	coldRep := observeWatch(t, cold, "w", WatchObserveRequest{Graph: &g})
	if !coldRep.Anomalous {
		t.Fatal("scenario broken: a cold tracker should flag the planted clique")
	}
}

// TestWatchDeltaResume feeds post-restart observations as edge deltas: the
// checkpointed delta base (last observation) must be what they apply to.
// The twin feeds full snapshots, so agreement is up to the incremental
// engine's floating-point tolerance, not bitwise.
func TestWatchDeltaResume(t *testing.T) {
	dir := t.TempDir()
	snaps := watchStream(7, 16, 5, 3, []int{1, 3, 8})
	req := WatchRequest{Name: "d", N: 16, Lambda: 0.4}

	restarted := openTest(t, dir)
	twin := New(Config{})
	for _, s := range []*Server{restarted, twin} {
		registerTestWatch(t, s, req)
		for _, g := range snaps[:3] {
			g := g
			observeWatch(t, s, "d", WatchObserveRequest{Graph: &g})
		}
	}
	restarted.Flush()
	restarted.Close()

	s2 := openTest(t, dir)
	defer s2.Close()
	for i := 3; i < len(snaps); i++ {
		delta := DeltaBetween(snaps[i-1], snaps[i])
		got := observeWatch(t, s2, "d", WatchObserveRequest{Delta: delta})
		g := snaps[i]
		want := observeWatch(t, twin, "d", WatchObserveRequest{Graph: &g})
		if got.Step != want.Step || got.Anomalous != want.Anomalous ||
			!approxEq(got.Contrast, want.Contrast) {
			t.Fatalf("delta tick %d diverged after restart: got %+v, want %+v", i, got, want)
		}
	}
	// The first post-restart delta tick has no warm-start prior and must
	// have re-solved from scratch.
	var ring WatchReportsResponse
	if code := doJSON(t, s2, http.MethodGet, "/v1/watches/d/reports", nil, &ring); code != http.StatusOK {
		t.Fatalf("reports: %d", code)
	}
	for _, r := range ring.Reports {
		if r.Step == 4 && r.Mode != "scratch" {
			t.Fatalf("first post-restart delta tick mode %q, want scratch", r.Mode)
		}
	}
}

func TestWatchRegistrationAloneSurvivesRestart(t *testing.T) {
	// A watch registered and never observed must come back (write-through
	// checkpoint at registration) even without Flush or Close.
	dir := t.TempDir()
	s := openTest(t, dir)
	registerTestWatch(t, s, WatchRequest{Name: "fresh", N: 5, Measure: "affinity"})

	s2 := openTest(t, dir)
	defer s2.Close()
	wt, ok := s2.watches.get("fresh")
	if !ok || wt.measure != "affinity" || wt.n != 5 {
		t.Fatalf("unobserved watch not restored: %v", ok)
	}
	// And it is observable immediately.
	g := GraphJSON{N: 5, Edges: []EdgeJSON{{U: 0, V: 1, W: 9}}}
	rep := observeWatch(t, s2, "fresh", WatchObserveRequest{Graph: &g})
	if rep.Step != 1 {
		t.Fatalf("first observe after restart: step %d", rep.Step)
	}
}

func TestWatchDeletePersists(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	registerTestWatch(t, s, WatchRequest{Name: "gone", N: 4})
	if code := doJSON(t, s, http.MethodDelete, "/v1/watches/gone", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	if _, ok := s2.watches.get("gone"); ok {
		t.Fatal("deleted watch resurrected by restart")
	}
	if st := s2.PersistStats(); st.WatchesRestored != 0 || st.RestoreErrors != 0 {
		t.Fatalf("stats %+v", st)
	}
	// No stray files either.
	entries, err := os.ReadDir(filepath.Join(dir, "watches"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "gone") {
			t.Fatalf("leftover watch file %s", e.Name())
		}
	}
}

func TestWatchDeleteDoesNotEraseReRegistration(t *testing.T) {
	// The delete handler removes from the registry, then (later) removes the
	// files. If a new same-named watch registers in between, its durable
	// state — promised by the registration's 200 — must survive the delayed
	// file removal.
	dir := t.TempDir()
	s := openTest(t, dir)
	registerTestWatch(t, s, WatchRequest{Name: "w", N: 4})
	s.watches.remove("w") // T1's registry remove committed...
	registerTestWatch(t, s, WatchRequest{Name: "w", N: 9, Measure: "affinity"})
	s.persist.deleteWatch("w") // ...and its file removal arrives only now

	s2 := openTest(t, dir)
	defer s2.Close()
	wt, ok := s2.watches.get("w")
	if !ok || wt.n != 9 || wt.measure != "affinity" {
		t.Fatalf("re-registered watch erased by the stale delete: %v", ok)
	}
}

func TestHealthzReportsPersistence(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("h", testGraph(1))
	registerTestWatch(t, s, WatchRequest{Name: "hw", N: 3})
	s.Close()

	s2 := openTest(t, dir)
	defer s2.Close()
	var health HealthResponse
	if code := doJSON(t, s2, http.MethodGet, "/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	p := health.Persistence
	if !p.Enabled || p.SnapshotsRestored != 1 || p.WatchesRestored != 1 {
		t.Fatalf("healthz persistence %+v", p)
	}

	// In-memory servers advertise persistence as disabled.
	mem := New(Config{})
	var memHealth HealthResponse
	doJSON(t, mem, http.MethodGet, "/healthz", nil, &memHealth)
	if memHealth.Persistence.Enabled {
		t.Fatal("in-memory server claims persistence")
	}
}

// v1Fixture is a version-1 graph file committed with the dataio tests;
// the v1 writer is gone, so these are the only v1 files there are.
func v1Fixture(name string) string {
	return filepath.Join("..", "internal", "dataio", "testdata", name)
}

// binaryVersion returns the format version field of a .dcsg file.
func binaryVersion(t *testing.T, path string) uint16 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 6 {
		t.Fatalf("%s: %d bytes, not a binary graph", path, len(data))
	}
	return binary.LittleEndian.Uint16(data[4:6])
}

// writeLegacyDataDir lays out a data directory as an earlier build left
// it: a pre-metadata snapshot manifest (no Meta) for "legacy" and a watch
// "w" checkpointed at step 2, whose graph files are copies of the v1
// fixtures. With reencode set, every graph file is rewritten as v2 instead,
// giving the twin the v1 directory must answer identically to.
func writeLegacyDataDir(t *testing.T, dir string, reencode bool) {
	t.Helper()
	for _, d := range []string{"snapshots", "watches"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	copyGraph := func(src, dst string) {
		data, err := os.ReadFile(v1Fixture(src))
		if err != nil {
			t.Fatal(err)
		}
		if reencode {
			g, err := dcs.ReadGraphBinary(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := dcs.WriteGraphBinaryV2(&buf, g, false); err != nil {
				t.Fatal(err)
			}
			data = buf.Bytes()
		}
		if err := os.WriteFile(filepath.Join(dir, dst), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	created := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	copyGraph("v1_random.dcsg", "snapshots/legacy.v3.dcsg")
	if err := writeJSONFile(filepath.Join(dir, "snapshots", "legacy.json"), snapManifest{
		Name: "legacy", Version: 3, UpdatedAt: created, File: "legacy.v3.dcsg",
	}); err != nil {
		t.Fatal(err)
	}
	copyGraph("v1_view.dcsg", "watches/w.v1.expect.dcsg")
	copyGraph("v1_view.dcsg", "watches/w.v1.last.dcsg")
	if err := writeJSONFile(filepath.Join(dir, "watches", "w.json"), watchManifest{
		Name: "w", N: 5, Lambda: 0.5, Measure: "avgdeg", MinDensity: 1,
		ReportCap: 8, CreatedAt: created, Step: 2, Seq: 1,
		ExpectFile: "w.v1.expect.dcsg", LastFile: "w.v1.last.dcsg",
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPersistRestoresV1Files boots a data directory whose snapshot and
// watch checkpoint are v1 graph files, as written by earlier builds: both
// must restore and answer exactly as the same directory re-encoded as v2
// does, and the next checkpoint must write v2.
func TestPersistRestoresV1Files(t *testing.T) {
	oldDir, twinDir := t.TempDir(), t.TempDir()
	writeLegacyDataDir(t, oldDir, false)
	writeLegacyDataDir(t, twinDir, true)
	for _, f := range []string{"snapshots/legacy.v3.dcsg", "watches/w.v1.expect.dcsg", "watches/w.v1.last.dcsg"} {
		if v := binaryVersion(t, filepath.Join(oldDir, f)); v != 1 {
			t.Fatalf("%s: version %d, the test needs a v1 file", f, v)
		}
	}
	old, twin := openTest(t, oldDir), openTest(t, twinDir)
	defer old.Close()
	defer twin.Close()
	for _, s := range []*Server{old, twin} {
		if st := s.PersistStats(); st.SnapshotsRestored != 1 || st.WatchesRestored != 1 || st.RestoreErrors != 0 {
			t.Fatalf("restore stats %+v", st)
		}
	}
	snap, ok := old.Store().Get("legacy")
	if !ok || snap.Version != 3 {
		t.Fatalf("legacy snapshot restored as %+v", snap)
	}
	want, err := os.Open(v1Fixture("v1_random.dcsg"))
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	wantG, err := dcs.ReadGraphBinary(want)
	if err != nil {
		t.Fatal(err)
	}
	if g := snapGraph(t, snap); g.N() != wantG.N() || g.M() != wantG.M() ||
		math.Float64bits(g.TotalWeight()) != math.Float64bits(wantG.TotalWeight()) {
		t.Fatalf("legacy snapshot: n=%d m=%d tw=%v, want n=%d m=%d tw=%v",
			g.N(), g.M(), g.TotalWeight(), wantG.N(), wantG.M(), wantG.TotalWeight())
	}

	// The snapshot mines identically: GD = G2 (alpha 0) over the v1 graph.
	alpha := 0.0
	for _, measure := range []string{"avgdeg", "affinity"} {
		req := DCSRequest{Measure: measure, G1: "legacy", G2: "legacy", Alpha: &alpha}
		var got, exp DCSResponse
		if code := doJSON(t, old, http.MethodPost, "/v1/dcs", req, &got); code != http.StatusOK {
			t.Fatalf("%s on v1 snapshot: status %d", measure, code)
		}
		if code := doJSON(t, twin, http.MethodPost, "/v1/dcs", req, &exp); code != http.StatusOK {
			t.Fatalf("%s on v2 twin: status %d", measure, code)
		}
		got.ElapsedMS, exp.ElapsedMS = 0, 0
		if len(got.Results) == 0 || !reflect.DeepEqual(got, exp) {
			t.Fatalf("%s: v1 snapshot answered %+v, v2 twin %+v", measure, got, exp)
		}
	}

	// The watch resumes at step 2 from the v1 expectation and delta base:
	// a delta observation (applied to the restored last graph) and a full
	// one report identically on both.
	obs := []WatchObserveRequest{
		{Delta: []EdgeJSON{{U: 2, V: 3, W: 6}, {U: 2, V: 4, W: 6}, {U: 3, V: 4, W: 6}}},
		{Graph: &GraphJSON{N: 5, Edges: []EdgeJSON{{U: 0, V: 1, W: 2}, {U: 1, V: 3, W: 1}}}},
	}
	for i, o := range obs {
		got, exp := observeWatch(t, old, "w", o), observeWatch(t, twin, "w", o)
		if got.Step != 3+i || got.Step != exp.Step || got.Anomalous != exp.Anomalous ||
			!slices.Equal(got.S, exp.S) || math.Float64bits(got.Contrast) != math.Float64bits(exp.Contrast) ||
			got.Mode != exp.Mode {
			t.Fatalf("observation %d: v1 watch reported %+v, v2 twin %+v", i, got, exp)
		}
	}
	if first := observeWatch(t, old, "w", obs[0]); first.Step != 5 {
		t.Fatalf("step after restore: %d", first.Step)
	}

	// The next checkpoint replaces the v1 files with v2 ones.
	old.Flush()
	man := old.persist.readWatchManifest("w")
	if man == nil || man.Seq != 2 || man.Step != 5 {
		t.Fatalf("checkpoint manifest %+v", man)
	}
	for _, f := range []string{man.ExpectFile, man.LastFile} {
		if v := binaryVersion(t, filepath.Join(oldDir, "watches", f)); v != 2 {
			t.Fatalf("checkpoint wrote %s as version %d, want 2", f, v)
		}
	}
	for _, f := range []string{"w.v1.expect.dcsg", "w.v1.last.dcsg"} {
		if _, err := os.Stat(filepath.Join(oldDir, "watches", f)); !os.IsNotExist(err) {
			t.Fatalf("superseded v1 checkpoint file %s still present (%v)", f, err)
		}
	}
	// So does the snapshot's next version.
	if _, err := old.Store().Put("legacy", testGraph(1, 2)); err != nil {
		t.Fatal(err)
	}
	if v := binaryVersion(t, filepath.Join(oldDir, "snapshots", "legacy.v4.dcsg")); v != 2 {
		t.Fatalf("snapshot v4 written as version %d, want 2", v)
	}
}

// TestPersistNameLengthLimit checks the file-name limit on names: a name
// whose key is longer than its kind's limit is a 400 that stores and writes
// nothing, on durable and in-memory servers alike, and a name exactly at
// the limit persists and survives a restart.
func TestPersistNameLengthLimit(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	mem := New(Config{})
	defer mem.Close()
	snapAt := strings.Repeat("s", maxSnapshotKey)
	watchAt := strings.Repeat("w", maxWatchKey)
	edge := GraphJSON{N: 2, Edges: []EdgeJSON{{U: 0, V: 1, W: 3}}}
	over := []struct {
		path string
		body any
	}{
		{"/v1/snapshots", SnapshotRequest{Name: snapAt + "s", GraphJSON: edge}},
		// "é" escapes to six bytes: short enough raw, too long as a key.
		{"/v1/snapshots", SnapshotRequest{Name: snapAt[5:] + "é", GraphJSON: edge}},
		{"/v1/watches", WatchRequest{Name: watchAt + "w", N: 2}},
		{"/v1/watches", WatchRequest{Name: watchAt[5:] + "é", N: 2}},
	}
	for _, srv := range []*Server{s, mem} {
		for _, c := range over {
			if code := doJSON(t, srv, http.MethodPost, c.path, c.body, nil); code != http.StatusBadRequest {
				t.Errorf("%s with an over-long name: status %d, want 400", c.path, code)
			}
		}
		if n, w := srv.Store().Len(), len(srv.watches.list()); n != 0 || w != 0 {
			t.Errorf("over-long names stored %d snapshots and %d watches", n, w)
		}
	}
	if st := s.PersistStats(); st.WriteErrors != 0 || st.SnapshotWrites != 0 || st.WatchCheckpoints != 0 {
		t.Errorf("over-long names reached the disk: %+v", st)
	}
	for _, sub := range []string{"snapshots", "watches"} {
		if entries, err := os.ReadDir(filepath.Join(dir, sub)); err != nil || len(entries) != 0 {
			t.Errorf("%s after rejected names: %d entries, %v", sub, len(entries), err)
		}
	}

	if code := doJSON(t, s, http.MethodPost, "/v1/snapshots", SnapshotRequest{Name: snapAt, GraphJSON: edge}, nil); code != http.StatusOK {
		t.Fatalf("snapshot name at the limit: status %d", code)
	}
	registerTestWatch(t, s, WatchRequest{Name: watchAt, N: 2})
	observeWatch(t, s, watchAt, WatchObserveRequest{Graph: &edge})
	s.Close()
	if st := s.PersistStats(); st.WriteErrors != 0 {
		t.Fatalf("names at the limit failed to persist: %+v", st)
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	snap, ok := s2.Store().Get(snapAt)
	if !ok || snapGraph(t, snap).Weight(0, 1) != 3 {
		t.Fatalf("snapshot named at the limit not restored: %v", ok)
	}
	if wt, ok := s2.watches.get(watchAt); !ok || wt.step != 1 {
		t.Fatalf("watch named at the limit not restored: %v", ok)
	}
}

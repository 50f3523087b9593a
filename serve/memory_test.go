package serve

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"testing"

	dcs "github.com/dcslib/dcs"
)

// memTestGraph builds a deterministic random graph big enough that its v2
// file spans real section pages (a few thousand edges).
func memTestGraph(seed int64, n int) *dcs.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := dcs.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.1 {
				b.AddEdge(u, v, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

// dcsAnswer mines avgdeg over a named pair and returns the raw response
// JSON with the timing stripped, so two servers' answers compare bitwise.
func dcsAnswer(t *testing.T, s *Server, g1, g2 string) string {
	t.Helper()
	var resp DCSResponse
	if code := doJSON(t, s, http.MethodPost, "/v1/dcs",
		DCSRequest{Measure: "avgdeg", G1: g1, G2: g2}, &resp); code != http.StatusOK {
		t.Fatalf("dcs %s vs %s: status %d", g1, g2, code)
	}
	resp.ElapsedMS = 0
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestMemoryBudgetEvictsAndServesCorrectly is the serve-layer acceptance
// test of the out-of-core store: a durable server whose snapshot set far
// exceeds its memory budget must answer every query bitwise-identically to
// an unconstrained in-memory twin, with evictions actually observed.
func TestMemoryBudgetEvictsAndServesCorrectly(t *testing.T) {
	// ~16 KiB per open snapshot file; a 24 KiB budget fits one at a time.
	dir := t.TempDir()
	s, err := Open(Config{CheckpointInterval: -1, MemLimit: 24 << 10}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeChecked(t, s, dir)
	twin := New(Config{})
	defer twin.Close()

	names := []string{"a", "b", "c", "d"}
	for i, name := range names {
		g := memTestGraph(int64(i+1), 80)
		if _, err := s.Store().Put(name, g); err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
		twin.Store().Put(name, g)
	}
	for round := 0; round < 2; round++ {
		for i, g1 := range names {
			g2 := names[(i+1)%len(names)]
			if got, want := dcsAnswer(t, s, g1, g2), dcsAnswer(t, twin, g1, g2); got != want {
				t.Fatalf("round %d %s vs %s: budgeted answer diverged\n got %s\nwant %s", round, g1, g2, got, want)
			}
		}
	}
	st := s.MemoryStats()
	if !st.Enabled || st.Evictions == 0 || st.Remaps == 0 {
		t.Fatalf("budget never exercised: %+v", st)
	}
	if st.PinnedSnapshots != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
	if tw := twin.MemoryStats(); tw.Enabled || tw.Evictions != 0 {
		t.Fatalf("in-memory twin grew a budget: %+v", tw)
	}
	// Async jobs hold their pins until they finish, which may be after
	// Close: closeChecked waits for them to drain.
	for i, g1 := range names {
		req := DCSRequest{Measure: "avgdeg", G1: g1, G2: names[(i+1)%len(names)]}
		if code := doJSON(t, s, http.MethodPost, "/v1/jobs", req, nil); code != http.StatusAccepted {
			t.Fatalf("job %s: status %d", g1, code)
		}
	}
}

// TestMemoryPinBlocksEviction holds a pin on one snapshot while churning
// enough others through a tiny budget to force evictions: the pinned graph
// must stay readable throughout (eviction never unmaps under a reader).
func TestMemoryPinBlocksEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{CheckpointInterval: -1, MemLimit: 1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeChecked(t, s, dir)
	for _, name := range []string{"pinned", "x", "y"} {
		if _, err := s.Store().Put(name, memTestGraph(7, 60)); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := s.Store().Get("pinned")
	g, release, err := snap.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	want := g.TotalWeight()
	// Churn the others: with a 1-byte budget each release evicts, but the
	// held pin must survive every sweep.
	for i := 0; i < 3; i++ {
		for _, name := range []string{"x", "y"} {
			other, _ := s.Store().Get(name)
			og, orel, err := other.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			_ = og.TotalWeight()
			orel()
		}
		if got := g.TotalWeight(); got != want {
			t.Fatalf("pinned graph changed under churn: %v != %v", got, want)
		}
	}
	st := s.MemoryStats()
	if st.Evictions == 0 || st.PinnedSnapshots != 1 || st.OpenSnapshots < 1 {
		t.Fatalf("stats %+v: want evictions with exactly the pinned snapshot surviving", st)
	}
	release()
	if st := s.MemoryStats(); st.PinnedSnapshots != 0 || st.OpenSnapshots != 0 {
		t.Fatalf("release did not drain under a 1-byte budget: %+v", st)
	}
}

// TestMemoryDeleteInvalidatesHandle checks the tombstone/ABA discipline on
// mappings: deleting a snapshot invalidates its handle by (name, version)
// identity, so a stale Snapshot pointer errors instead of serving, and a
// re-created name is served from its own fresh version — never the stale
// mapping.
func TestMemoryDeleteInvalidatesHandle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{CheckpointInterval: -1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeChecked(t, s, dir)
	s.Store().Put("g", testGraph(1, 2))
	stale, _ := s.Store().Get("g")
	if _, release, err := stale.Acquire(); err != nil { // map it once
		t.Fatal(err)
	} else {
		release()
	}
	if ok, err := s.Store().Delete("g"); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, _, err := stale.Acquire(); !errors.Is(err, errSnapshotGone) {
		t.Fatalf("stale acquire after delete: %v, want errSnapshotGone", err)
	}
	if st := s.MemoryStats(); st.OpenSnapshots != 0 || st.LazySnapshots != 0 {
		t.Fatalf("delete left handles behind: %+v", st)
	}

	s.Store().Put("g", testGraph(9)) // re-created: version 2, different graph
	fresh, _ := s.Store().Get("g")
	if fresh.Version != 2 {
		t.Fatalf("re-created version %d, want 2", fresh.Version)
	}
	g, release, err := fresh.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if w := g.Weight(0, 1); w != 9 {
		t.Fatalf("re-created name served stale data: weight %v", w)
	}
	release()
	if _, _, err := stale.Acquire(); !errors.Is(err, errSnapshotGone) {
		t.Fatal("stale version 1 handle resurrected by the re-creation")
	}
}

// TestMemoryDeleteWhilePinned: a delete while a solve holds the mapping
// dooms the handle instead of unmapping it — the reader finishes on valid
// memory and the close happens at the final release.
func TestMemoryDeleteWhilePinned(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{CheckpointInterval: -1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeChecked(t, s, dir)
	s.Store().Put("g", memTestGraph(3, 50))
	snap, _ := s.Store().Get("g")
	g, release, err := snap.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	want := g.TotalWeight()
	if ok, _ := s.Store().Delete("g"); !ok {
		t.Fatal("delete failed")
	}
	// Doomed but pinned: still open, still readable.
	if st := s.MemoryStats(); st.OpenSnapshots != 1 || st.PinnedSnapshots != 1 {
		t.Fatalf("doomed handle closed under its pin: %+v", st)
	}
	if got := g.TotalWeight(); got != want {
		t.Fatalf("graph changed after delete-while-pinned: %v != %v", got, want)
	}
	release()
	if st := s.MemoryStats(); st.OpenSnapshots != 0 {
		t.Fatalf("last release did not close the doomed handle: %+v", st)
	}
}

// TestMemoryReplaceInvalidatesOldVersion: Put over an existing name frees
// the replaced version's mapping (it can never be resolved again).
func TestMemoryReplaceInvalidatesOldVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{CheckpointInterval: -1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeChecked(t, s, dir)
	s.Store().Put("g", testGraph(1))
	v1, _ := s.Store().Get("g")
	if _, release, err := v1.Acquire(); err != nil {
		t.Fatal(err)
	} else {
		release()
	}
	s.Store().Put("g", testGraph(2))
	if st := s.MemoryStats(); st.OpenSnapshots != 0 || st.LazySnapshots != 1 {
		t.Fatalf("replace left the old version open: %+v", st)
	}
	if _, _, err := v1.Acquire(); !errors.Is(err, errSnapshotGone) {
		t.Fatalf("replaced version still acquirable: %v", err)
	}
}

// TestMemoryLazyRestartServesFromDisk: after a restart the snapshots are
// registered lazily (no graph loads at boot) and first use maps them.
func TestMemoryLazyRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	g := memTestGraph(11, 70)
	s.Store().Put("g1", g)
	s.Store().Put("g2", memTestGraph(12, 70))
	want := dcsAnswer(t, s, "g1", "g2")
	closeChecked(t, s, dir)

	s2 := openTest(t, dir)
	defer closeChecked(t, s2, dir)
	if st := s2.MemoryStats(); st.OpenSnapshots != 0 || st.LazySnapshots != 2 {
		t.Fatalf("boot should register lazily, not open: %+v", st)
	}
	snap, ok := s2.Store().Get("g1")
	if !ok || snap.Info().M != g.M() || snap.Info().TotalWeight != g.TotalWeight() {
		t.Fatalf("lazy Info wrong: %+v vs m=%d tw=%v", snap.Info(), g.M(), g.TotalWeight())
	}
	if got := dcsAnswer(t, s2, "g1", "g2"); got != want {
		t.Fatalf("restarted answer diverged:\n got %s\nwant %s", got, want)
	}
	if st := s2.MemoryStats(); st.OpenSnapshots == 0 || st.MappedBytes == 0 {
		t.Fatalf("first use should have mapped the files: %+v", st)
	}
}

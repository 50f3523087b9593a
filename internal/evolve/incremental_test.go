package evolve

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
)

// randomStreamDelta builds one hostile tick delta: new edges, weight changes,
// sign flips, removals (explicit zeros), duplicates (last wins), and the
// occasional subnormal or huge weight. live tracks the edges currently
// present so removals and flips hit real edges.
func randomStreamDelta(rng *rand.Rand, n int, live map[[2]int]float64) []graph.Edge {
	k := 1 + rng.Intn(8)
	delta := make([]graph.Edge, 0, k+2)
	addEntry := func(u, v int, w float64) {
		if u > v {
			u, v = v, u
		}
		delta = append(delta, graph.Edge{U: u, V: v, W: w})
		if w == 0 {
			delete(live, [2]int{u, v})
		} else {
			live[[2]int{u, v}] = w
		}
	}
	existing := make([][2]int, 0, len(live))
	for p := range live {
		existing = append(existing, p)
	}
	for i := 0; i < k; i++ {
		switch op := rng.Float64(); {
		case op < 0.25 && len(existing) > 0: // remove a live edge
			p := existing[rng.Intn(len(existing))]
			addEntry(p[0], p[1], 0)
		case op < 0.4 && len(existing) > 0: // flip a live edge's sign
			p := existing[rng.Intn(len(existing))]
			addEntry(p[0], p[1], -live[p])
		case op < 0.45: // hostile magnitude
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := 5e-310 // subnormal
			if rng.Intn(2) == 0 {
				w = 1e100
			}
			addEntry(u, v, w)
		default: // set or update a moderate edge
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			addEntry(u, v, 20*rng.Float64()-5)
		}
	}
	// Duplicate one entry with a different weight: last wins, and both
	// trackers must agree on that.
	if len(delta) > 0 && rng.Intn(3) == 0 {
		e := delta[rng.Intn(len(delta))]
		e.W = rng.Float64()
		delta = append(delta, e)
		if e.W == 0 {
			delete(live, [2]int{e.U, e.V})
		} else {
			live[[2]int{e.U, e.V}] = e.W
		}
	}
	return delta
}

// approxGraphEq reports whether two graphs agree edge-for-edge within tol
// relative to the largest weight present (the honest bound when huge inputs
// cancel to small outputs).
func approxGraphEq(a, b *graph.Graph, tol float64) bool {
	floor := 1.0
	scan := func(g *graph.Graph) map[[2]int]float64 {
		m := make(map[[2]int]float64)
		g.VisitEdges(func(u, v int, w float64) {
			m[[2]int{u, v}] = w
			if aw := math.Abs(w); aw > floor {
				floor = aw
			}
		})
		return m
	}
	am, bm := scan(a), scan(b)
	for p, w := range bm {
		if _, ok := am[p]; !ok {
			am[p] = 0
		}
		_ = w
	}
	for p, aw := range am {
		if math.Abs(aw-bm[p]) > tol*floor {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIncrementalMatchesScratchStreams is the engine's equivalence property:
// over randomized hostile delta streams, a tracker mining incrementally must
// stay in lockstep with (a) a tracker forced to solve every tick from scratch
// (ResyncEvery: 1) and (b) a tracker fed the same stream as full snapshots
// through the original Blend/Difference arithmetic. The folded state
// (expectation, observation, step) is solver-independent, so it must agree
// across all three at every tick; on the incremental tracker's scratch ticks
// (resyncs, drift re-checks, locality fallbacks) the mined report must equal
// the scratch oracle's exactly — both solve the bitwise-identical maintained
// difference graph.
func TestIncrementalMatchesScratchStreams(t *testing.T) {
	const n, steps = 80, 60
	for _, lambda := range []float64{0.05, 0.3, 0.9} {
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(int64(100*trial) + int64(1000*lambda)))
			cfg := Config{Lambda: lambda, MinDensity: 3}
			inc := mustNew(t, n, Config{Lambda: lambda, MinDensity: 3, ResyncEvery: 5})
			oracle := mustNew(t, n, Config{Lambda: lambda, MinDensity: 3, ResyncEvery: 1})
			snap := mustNew(t, n, cfg)

			live := map[[2]int]float64{}
			cur := graph.NewBuilder(n).Build()
			for step := 1; step <= steps; step++ {
				delta := randomStreamDelta(rng, n, live)
				cur = graph.ApplyDelta(cur, delta)

				repInc, err := inc.ObserveDeltaCtx(context.Background(), delta)
				if err != nil {
					t.Fatalf("inc tick %d: %v", step, err)
				}
				repOr, err := oracle.ObserveDeltaCtx(context.Background(), delta)
				if err != nil {
					t.Fatalf("oracle tick %d: %v", step, err)
				}
				repSnap := observe(t, snap, cur)

				if repInc.Step != step || repOr.Step != step || repSnap.Step != step {
					t.Fatalf("step skew at %d: %d/%d/%d", step, repInc.Step, repOr.Step, repSnap.Step)
				}
				if repOr.Mode != ModeScratch {
					t.Fatalf("tick %d: oracle (ResyncEvery 1) mode %q", step, repOr.Mode)
				}
				// Scratch ticks of the incremental tracker solve the very
				// same maintained graph as the oracle: exact agreement.
				if repInc.Mode == ModeScratch {
					if !sameInts(repInc.S, repOr.S) || repInc.Contrast != repOr.Contrast {
						t.Fatalf("tick %d: scratch report %+v != oracle %+v", step, repInc, repOr)
					}
				} else if repInc.Anomalous() != repOr.Anomalous() {
					// Incremental ticks may find a different (equally valid)
					// set, but the verdict itself must not drift — a flip
					// forces a global re-check by construction.
					t.Fatalf("tick %d: incremental verdict %v (S=%v), oracle %v (S=%v)",
						step, repInc.Anomalous(), repInc.S, repOr.Anomalous(), repOr.S)
				}

				// The folded state is solver-independent: both maintainer
				// trackers agree bitwise, and both track the snapshot twin's
				// Blend arithmetic within float tolerance.
				ie, il, is := inc.CheckpointState()
				oe, ol, _ := oracle.CheckpointState()
				se, sl, _ := snap.CheckpointState()
				if is != step {
					t.Fatalf("tick %d: checkpoint step %d", step, is)
				}
				if !approxGraphEq(ie, oe, 0) || !approxGraphEq(il, ol, 0) {
					t.Fatalf("tick %d: maintainer trackers disagree bitwise", step)
				}
				if !approxGraphEq(ie, se, 1e-8) {
					t.Fatalf("tick %d: incremental expectation drifted from snapshot twin", step)
				}
				if !approxGraphEq(il, sl, 1e-9) {
					t.Fatalf("tick %d: incremental observation drifted from snapshot twin", step)
				}
			}
			st := inc.Stats()
			if st.ScratchTicks+st.IncrementalTicks != steps {
				t.Fatalf("tick counters %+v don't sum to %d", st, steps)
			}
			if st.IncrementalTicks == 0 {
				t.Fatalf("no tick ran incrementally: %+v", st)
			}
			if st.ScratchTicks < steps/5 {
				t.Fatalf("ResyncEvery 5 over %d ticks yielded only %d scratch ticks", steps, st.ScratchTicks)
			}
			if st.WarmHits > st.IncrementalTicks {
				t.Fatalf("warm hits %d exceed incremental ticks %d", st.WarmHits, st.IncrementalTicks)
			}
		}
	}
}

// TestIncrementalMatchesScratchBursts drives the incremental engine and a
// forced-scratch twin (ResyncEvery: 1) over coauthor networks fed edge-churn
// deltas with a heavy 6-clique planted every 24th tick and removed on the
// next — the stream shape BenchmarkDeltaTick times, plus the anomaly. Both
// must report the same verdict on every tick, the same set and contrast on
// the incremental engine's scratch ticks, and contrasts within float
// tolerance whenever an incremental tick finds the twin's set. Where the
// delta is small against the graph (64·k ≤ n) the stream must also exercise
// the incremental path; a delta touching a sizable fraction of the vertices
// legitimately overflows the locality cap and solves from scratch.
func TestIncrementalMatchesScratchBursts(t *testing.T) {
	const ticks = 48
	ctx := context.Background()
	for _, n := range []int{200, 500} {
		base := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 7, N: n}).G2
		for _, k := range []int{4, 32} {
			inc := mustNew(t, n, Config{Lambda: 0.3, MinDensity: 5})
			scr := mustNew(t, n, Config{Lambda: 0.3, MinDensity: 5, ResyncEvery: 1})
			observe(t, inc, base)
			observe(t, scr, base)
			next := churnStream(7, base, k, true)
			anomalies := 0
			for i := 0; i < ticks; i++ {
				delta := next()
				ri, err := inc.ObserveDeltaCtx(ctx, delta)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := scr.ObserveDeltaCtx(ctx, delta)
				if err != nil {
					t.Fatal(err)
				}
				if ri.Step != rs.Step {
					t.Fatalf("n=%d k=%d: step skew %d vs %d", n, k, ri.Step, rs.Step)
				}
				if ri.Anomalous() != rs.Anomalous() {
					t.Fatalf("n=%d k=%d tick %d: incremental verdict %v (S=%v), scratch %v (S=%v)",
						n, k, ri.Step, ri.Anomalous(), ri.S, rs.Anomalous(), rs.S)
				}
				if ri.Anomalous() {
					anomalies++
				}
				switch {
				case ri.Mode == ModeScratch:
					if !sameInts(ri.S, rs.S) || ri.Contrast != rs.Contrast {
						t.Fatalf("n=%d k=%d tick %d: scratch report %+v != twin %+v", n, k, ri.Step, ri, rs)
					}
				case ri.Anomalous() && sameInts(ri.S, rs.S):
					if d := math.Abs(ri.Contrast - rs.Contrast); d > 1e-6*math.Max(math.Abs(rs.Contrast), 1) {
						t.Fatalf("n=%d k=%d tick %d: contrast %v vs %v on the same set",
							n, k, ri.Step, ri.Contrast, rs.Contrast)
					}
				}
			}
			if anomalies == 0 {
				t.Errorf("n=%d k=%d: no tick was anomalous; the planted bursts went unseen", n, k)
			}
			if st := inc.Stats(); 64*k <= n && st.IncrementalTicks == 0 {
				t.Errorf("n=%d k=%d: the stream never exercised the incremental path: %+v", n, k, st)
			}
		}
	}
}

// TestSnapshotResetsIncrementalEngine interleaves a full-snapshot observe
// into a delta stream: the snapshot collapses the maintainer back to
// materialized state (the next delta tick reseeds it), and the folded state
// stays equivalent to a pure-snapshot twin throughout. The snapshot tick's
// own global solve remains a valid warm-start prior — the decay+delta
// relation between consecutive difference graphs holds across it.
func TestSnapshotResetsIncrementalEngine(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(9))
	inc := mustNew(t, n, Config{Lambda: 0.4})
	snap := mustNew(t, n, Config{Lambda: 0.4})

	live := map[[2]int]float64{}
	cur := graph.NewBuilder(n).Build()
	tick := func() Report {
		delta := randomStreamDelta(rng, n, live)
		cur = graph.ApplyDelta(cur, delta)
		rep, err := inc.ObserveDeltaCtx(context.Background(), delta)
		if err != nil {
			t.Fatalf("ObserveDeltaCtx: %v", err)
		}
		observe(t, snap, cur)
		return rep
	}

	if rep := tick(); rep.Mode != ModeScratch {
		t.Fatalf("first delta tick mode %q, want scratch (no prior)", rep.Mode)
	}
	sawIncremental := false
	for i := 0; i < 6; i++ {
		if tick().Mode == ModeIncremental {
			sawIncremental = true
		}
	}
	if !sawIncremental {
		t.Fatal("stream never went incremental before the snapshot reset")
	}

	// Full snapshot mid-stream: scratch by definition, collapses the
	// maintainer back to materialized graphs.
	rep := observe(t, inc, cur)
	observe(t, snap, cur)
	if rep.Mode != ModeScratch {
		t.Fatalf("snapshot observe mode %q", rep.Mode)
	}
	if inc.mt != nil {
		t.Fatal("snapshot observe left the maintainer live")
	}
	// The stream continues; the snapshot tick's global solve is a valid
	// prior, so delta ticks resume (reseeding the maintainer) either way.
	tick()
	if inc.mt == nil {
		t.Fatal("delta tick did not reseed the maintainer")
	}

	ie, il, _ := inc.CheckpointState()
	se, sl, _ := snap.CheckpointState()
	if !approxGraphEq(ie, se, 1e-9) || !approxGraphEq(il, sl, 1e-9) {
		t.Fatal("state diverged from the snapshot twin across the reset")
	}
}

// TestRestoreMidStream checkpoints a delta-fed tracker, restores a fresh one
// from the triple, and drives both on the same continuation: the restored
// tracker must resync from scratch on its first delta tick (no prior
// survives a restart) and then stay in lockstep.
func TestRestoreMidStream(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(11))
	cfg := Config{Lambda: 0.3, MinDensity: 2, ResyncEvery: 8}
	orig := mustNew(t, n, cfg)

	live := map[[2]int]float64{}
	for i := 0; i < 10; i++ {
		if _, err := orig.ObserveDeltaCtx(context.Background(), randomStreamDelta(rng, n, live)); err != nil {
			t.Fatalf("warmup tick: %v", err)
		}
	}
	expect, last, step := orig.CheckpointState()
	restored, err := Restore(n, cfg, expect, last, step)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}

	for i := 0; i < 10; i++ {
		delta := randomStreamDelta(rng, n, live)
		repO, err := orig.ObserveDeltaCtx(context.Background(), delta)
		if err != nil {
			t.Fatalf("orig tick: %v", err)
		}
		repR, err := restored.ObserveDeltaCtx(context.Background(), delta)
		if err != nil {
			t.Fatalf("restored tick: %v", err)
		}
		if i == 0 && repR.Mode != ModeScratch {
			t.Fatalf("restored tracker's first delta tick mode %q, want scratch", repR.Mode)
		}
		if repO.Step != repR.Step {
			t.Fatalf("step skew %d vs %d", repO.Step, repR.Step)
		}
		oe, ol, _ := orig.CheckpointState()
		re, rl, _ := restored.CheckpointState()
		if !approxGraphEq(oe, re, 1e-9) || !approxGraphEq(ol, rl, 1e-9) {
			t.Fatalf("tick %d after restore: state diverged", i)
		}
	}
}

// TestObserveDeltaRejectsBadInput mirrors the snapshot path's validation: a
// bad delta errors out without advancing the tracker.
func TestObserveDeltaRejectsBadInput(t *testing.T) {
	tr := mustNew(t, 5, Config{})
	for name, delta := range map[string][]graph.Edge{
		"self-loop":    {{U: 2, V: 2, W: 1}},
		"out of range": {{U: 0, V: 9, W: 1}},
		"negative id":  {{U: -1, V: 2, W: 1}},
		"NaN weight":   {{U: 0, V: 1, W: math.NaN()}},
		"Inf weight":   {{U: 0, V: 1, W: math.Inf(1)}},
	} {
		if _, err := tr.ObserveDeltaCtx(context.Background(), delta); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if tr.Step() != 0 {
		t.Fatalf("failed deltas advanced step to %d", tr.Step())
	}
	// An empty delta is a legal decay-only tick.
	if rep, err := tr.ObserveDeltaCtx(context.Background(), nil); err != nil || rep.Step != 1 {
		t.Fatalf("empty delta tick: %+v, %v", rep, err)
	}
	// Negative resync intervals are config corruption.
	if _, err := New(5, Config{ResyncEvery: -1}); err == nil {
		t.Error("negative ResyncEvery accepted")
	}
}

// TestConcurrentDeltaObserves drives the incremental path from many
// goroutines while readers hammer every lock-free accessor; run with -race.
// Reads must never block behind an in-flight solve, checkpoint triples must
// be tick-atomic, and the final step count reflects every tick exactly once.
func TestConcurrentDeltaObserves(t *testing.T) {
	const n, workers, rounds = 50, 6, 8
	tr := mustNew(t, n, Config{Lambda: 0.5, ResyncEvery: 3})

	var mu sync.Mutex // serializes delta generation, not the tracker
	rng := rand.New(rand.NewSource(13))
	live := map[[2]int]float64{}

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			e, l, s := tr.CheckpointState()
			if e.N() != n || l.N() != n || s < 0 {
				t.Error("torn checkpoint state")
				return
			}
			tr.Expectation()
			tr.Observation()
			tr.Stats()
			tr.Step()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				mu.Lock()
				delta := randomStreamDelta(rng, n, live)
				mu.Unlock()
				if _, err := tr.ObserveDeltaCtx(context.Background(), delta); err != nil {
					t.Errorf("ObserveDeltaCtx: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if tr.Step() != workers*rounds {
		t.Fatalf("step = %d, want %d", tr.Step(), workers*rounds)
	}
	st := tr.Stats()
	if st.ScratchTicks+st.IncrementalTicks != workers*rounds {
		t.Fatalf("tick counters %+v don't sum to %d", st, workers*rounds)
	}
}

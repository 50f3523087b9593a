// Package evolve tracks density contrast against a drifting historical
// expectation, implementing the anomaly-detection application sketched in
// Section I of the paper: "build a weighted graph where the edge weights are
// our expectation of how tightly the vertices are connected ... derived from
// historical data. Then we observe the current pairwise connection strength
// ... and apply DCS on these two weighted graphs."
//
// A Tracker maintains an exponentially-weighted moving average (EWMA) of the
// observed graphs as the expectation; each ObserveCtx call mines the DCS of
// the fresh observation against that expectation, then folds the observation
// into it. Persistent structure is absorbed into the expectation within a few
// steps and stops being reported; genuinely new dense structure surfaces the
// moment it appears.
//
// Observations arrive two ways. ObserveCtx takes a full snapshot and mines
// from scratch. ObserveDeltaCtx takes an edge delta against the previous
// observation and runs the incremental engine: a graph.Maintainer keeps the
// difference graph alive across ticks (EWMA decay as a lazy scalar, O(k)
// sparse corrections per k-edge delta), and mining is warm-started from the previous tick's subgraph on the delta's
// neighborhood, falling back to a full from-scratch solve every
// Config.ResyncEvery ticks, when the anomaly verdict flips, or when the
// delta's reach stops being local.
package evolve

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// DefaultResyncEvery is the incremental engine's exactness knob when
// Config.ResyncEvery is 0: one delta tick in every 32 re-solves the full
// difference graph from scratch, bounding how long a locally-mined answer can
// drift from the global one.
const DefaultResyncEvery = 32

// Config tunes a Tracker.
type Config struct {
	// Lambda is the EWMA decay in (0, 1]: expectation ← (1−λ)·expectation +
	// λ·observation. Small λ = long memory. 0 means the default 0.3; any
	// other value outside (0, 1] is rejected by New — a negative or > 1
	// lambda would silently corrupt the expectation.
	Lambda float64
	// MinDensity suppresses reports whose density contrast is at or below
	// this threshold. Default 0 (report any strictly positive contrast).
	// Must be finite.
	MinDensity float64
	// GA selects graph-affinity mining (small positive-clique anomalies)
	// instead of the default average-degree mining.
	GA bool
	// Opt is unread: the affinity solver (NewSEA) takes no options and
	// always runs sequentially. The field is kept so that code setting it
	// still compiles.
	Opt core.GAOptions
	// ResyncEvery forces every K-th delta tick to re-solve the full
	// difference graph from scratch instead of mining incrementally —
	// the eventual-exactness knob of the streaming engine. 0 means
	// DefaultResyncEvery; 1 disables incremental mining outright (every
	// delta tick is scratch); negative values are rejected.
	ResyncEvery int
}

// validate applies defaults and rejects corrupting values.
func (c Config) validate() (Config, error) {
	if c.Lambda == 0 {
		c.Lambda = 0.3
	}
	if math.IsNaN(c.Lambda) || c.Lambda < 0 || c.Lambda > 1 {
		return c, fmt.Errorf("evolve: lambda must be in (0, 1] (0 for the default 0.3), got %v", c.Lambda)
	}
	if math.IsNaN(c.MinDensity) || math.IsInf(c.MinDensity, 0) {
		return c, fmt.Errorf("evolve: min density must be finite, got %v", c.MinDensity)
	}
	if c.ResyncEvery < 0 {
		return c, fmt.Errorf("evolve: resync interval must be ≥ 0 (0 for the default %d), got %d",
			DefaultResyncEvery, c.ResyncEvery)
	}
	if c.ResyncEvery == 0 {
		c.ResyncEvery = DefaultResyncEvery
	}
	return c, nil
}

// Tick modes reported in Report.Mode.
const (
	// ModeScratch marks a tick mined on the full difference graph.
	ModeScratch = "scratch"
	// ModeIncremental marks a delta tick mined on the delta's neighborhood
	// with a warm start from the previous subgraph.
	ModeIncremental = "incremental"
)

// Report is one step's anomaly finding.
type Report struct {
	Step     int
	S        []int   // anomalous vertex set (empty if nothing above threshold)
	Contrast float64 // density difference observed − expected
	Affinity float64 // set when Config.GA
	// Mode is ModeScratch or ModeIncremental — which solve path produced
	// this report. Snapshot observes are always scratch.
	Mode string
	// WarmHit reports an incremental tick on which the previous tick's
	// subgraph (locally improved) beat every fresh solver candidate — the
	// warm start "hit", meaning the anomaly's structure persisted across
	// the delta.
	WarmHit bool
	// Interrupted reports that the step's mining was cut short by context
	// cancellation and S is the solver's best-so-far partial answer. The
	// observation is still folded into the expectation.
	Interrupted bool
}

// Anomalous reports whether the step surfaced a subgraph.
func (r Report) Anomalous() bool { return len(r.S) > 0 }

func (r Report) String() string {
	if !r.Anomalous() {
		return fmt.Sprintf("step %d: no contrast", r.Step)
	}
	return fmt.Sprintf("step %d: |S|=%d contrast=%.4g", r.Step, len(r.S), r.Contrast)
}

// TickStats counts how the tracker's ticks were served. Snapshot observes
// count as scratch ticks.
type TickStats struct {
	ScratchTicks     int // full-graph solves (snapshots, resyncs, drift, fallbacks)
	IncrementalTicks int // delta ticks served by the warm-started region solve
	WarmHits         int // incremental ticks won by the improved previous subgraph
}

// Tracker is the streaming state. Create with New. A Tracker is safe for
// concurrent use and holds two locks: observations serialize end-to-end on
// one, while the state the read-side accessors touch — expectation,
// observation base, step counter, tick statistics — is guarded by a second,
// briefly-held mutex. Expectation, Step, Stats and CheckpointState therefore
// never wait for an in-flight mining solve; mid-solve they see the state of
// the last completed tick.
type Tracker struct {
	cfg Config
	n   int

	// obsMu serializes ObserveCtx/ObserveDeltaCtx ticks end to end, so the
	// EWMA folds in stream order and the maintainer sees one tick at a
	// time. It is the only lock held across a mining solve.
	obsMu sync.Mutex

	// mu guards everything below, and is never held across a solve. All
	// Maintainer method calls that touch its materialization caches
	// (BeginTick, EndTick, Expectation, Observation, DiffGraph) happen
	// under mu; the solve itself uses only the cache-free Diff accessors.
	mu sync.Mutex
	// expect/last hold the materialized state while no maintainer is
	// live (snapshot mode); both are nil while mt owns the state.
	expect *graph.Graph      // guarded by mu
	last   *graph.Graph      // guarded by mu
	mt     *graph.Maintainer // guarded by mu
	step   int               // guarded by mu
	// prevS is the previous completed solve's full answer (the solver's
	// best set even when below the reporting threshold) — the warm-start
	// seed. Nil when there is no trustworthy prior: fresh or restored
	// trackers, and after an interrupted solve.
	prevS         []int     // guarded by mu
	prevAnomalous bool      // guarded by mu
	sinceScratch  int       // guarded by mu
	stats         TickStats // guarded by mu
	// regionMark is warmRegion's reusable membership buffer, touched only
	// while obsMu is held (ticks are serialized); always all-false between
	// ticks. Lazily sized to n on the first incremental tick. guarded by obsMu.
	regionMark []bool
}

// New returns a Tracker over n vertices with an empty expectation. It
// rejects a negative vertex count and corrupting config values (lambda
// outside (0, 1], non-finite thresholds) with a descriptive error.
func New(n int, cfg Config) (*Tracker, error) {
	if n < 0 {
		return nil, fmt.Errorf("evolve: negative vertex count %d", n)
	}
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	empty := graph.NewBuilder(n).Build()
	return &Tracker{cfg: cfg, n: n, expect: empty, last: empty}, nil
}

// Restore reconstructs a Tracker from checkpointed state: the expectation
// graph, the last observation (the delta base), and the step count a previous
// tracker had accumulated (CheckpointState). The config is validated exactly
// as in New; both graphs must match the vertex count. A nil last observation
// is accepted as empty, for checkpoints predating the delta base. This is how
// persisted dcsd watches resume after a restart instead of cold-starting and
// re-reporting everything the old expectation had already absorbed. A
// restored tracker has no warm-start prior, so its first delta tick re-solves
// from scratch.
func Restore(n int, cfg Config, expect, last *graph.Graph, step int) (*Tracker, error) {
	if n < 0 {
		return nil, fmt.Errorf("evolve: negative vertex count %d", n)
	}
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	if expect == nil {
		return nil, fmt.Errorf("evolve: nil expectation")
	}
	if expect.N() != n {
		return nil, fmt.Errorf("evolve: expectation has %d vertices, tracker has %d", expect.N(), n)
	}
	if last == nil {
		last = graph.NewBuilder(n).Build()
	}
	if last.N() != n {
		return nil, fmt.Errorf("evolve: last observation has %d vertices, tracker has %d", last.N(), n)
	}
	if step < 0 {
		return nil, fmt.Errorf("evolve: negative step count %d", step)
	}
	return &Tracker{cfg: cfg, n: n, expect: expect, last: last, step: step}, nil
}

// N returns the tracker's vertex count.
func (t *Tracker) N() int { return t.n }

// Expectation returns the current expectation graph. The graph is immutable;
// a later tick swaps in (or lazily materializes) a fresh one rather than
// mutating it. While a solve is in flight this is the expectation of the last
// completed tick — the call never blocks on mining.
func (t *Tracker) Expectation() *graph.Graph {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mt != nil {
		return t.mt.Expectation()
	}
	return t.expect
}

// Observation returns the last observation folded in — the base the next
// delta applies to. Like Expectation, it never blocks on an in-flight solve.
func (t *Tracker) Observation() *graph.Graph {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mt != nil {
		return t.mt.Observation()
	}
	return t.last
}

// Step returns how many observations have been folded in.
func (t *Tracker) Step() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.step
}

// Stats returns the tick-path counters accumulated so far.
func (t *Tracker) Stats() TickStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// CheckpointState returns the tracker's durable state — expectation, last
// observation, step — as one tick-atomic snapshot: taken while a tick is in
// flight, all three describe the last *completed* tick (the maintainer rolls
// the in-flight delta back through its O(k) pre-image). Restore of the
// returned triple resumes the stream exactly where the checkpoint saw it.
func (t *Tracker) CheckpointState() (expect, last *graph.Graph, step int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mt != nil {
		return t.mt.Expectation(), t.mt.Observation(), t.step
	}
	return t.expect, t.last, t.step
}

// mineFull runs the configured solver on a full difference graph and builds
// the (step-less) report plus the solver's raw answer for warm-starting.
func (t *Tracker) mineFull(rs *runstate.State, gd *graph.Graph) (rep Report, solved []int) {
	rep.Mode = ModeScratch
	if t.cfg.GA {
		res := core.NewSEA(rs, gd)
		rep.Interrupted = res.Interrupted
		if res.Affinity > t.cfg.MinDensity {
			rep.S = res.S
			rep.Contrast = res.Density
			rep.Affinity = res.Affinity
		}
		return rep, res.S
	}
	res := core.DCSGreedy(rs, gd, 1)
	rep.Interrupted = res.Interrupted
	if res.Density > t.cfg.MinDensity {
		rep.S = res.S
		rep.Contrast = res.Density
	}
	return rep, res.S
}

// finishTickLocked commits a completed tick — bumps the step, records the
// warm-start prior and anomaly verdict, and updates the tick counters — in
// the same critical section that swapped the tick's state in, so checkpoints
// never see a torn (state, step) pair. Callers hold mu. scratch reports
// whether the tick was served by a full solve.
func (t *Tracker) finishTickLocked(rep *Report, solved []int, scratch bool) {
	t.step++
	rep.Step = t.step
	if rep.Interrupted {
		t.prevS = nil // a truncated answer is not a trustworthy warm seed
	} else {
		t.prevS = solved
	}
	t.prevAnomalous = rep.Anomalous()
	if scratch {
		t.sinceScratch = 0
		t.stats.ScratchTicks++
	} else {
		t.sinceScratch++
		t.stats.IncrementalTicks++
		if rep.WarmHit {
			t.stats.WarmHits++
		}
	}
}

// ObserveCtx mines the DCS of the observation against the current
// expectation and then updates the expectation. It returns an error (and
// leaves the tracker untouched) when the observation's vertex count does not
// match the tracker's.
//
// When ctx is cancelled or its deadline expires, the mining solver stops at
// its next checkpoint and the report carries its best-so-far partial
// subgraph with Interrupted set.
// The observation is folded into the expectation either way — an interrupted
// mining step must not desynchronize the EWMA from the stream.
//
// A full snapshot always mines from scratch and resets the incremental
// engine: any live maintainer is collapsed back to materialized state, and
// the next delta tick reseeds it.
func (t *Tracker) ObserveCtx(ctx context.Context, observed *graph.Graph) (Report, error) {
	if observed == nil {
		return Report{}, fmt.Errorf("evolve: nil observation")
	}
	if observed.N() != t.n {
		return Report{}, fmt.Errorf("evolve: observation has %d vertices, tracker has %d", observed.N(), t.n)
	}
	t.obsMu.Lock()
	defer t.obsMu.Unlock()

	t.mu.Lock()
	if t.mt != nil {
		// Collapse the maintainer: the snapshot replaces the delta
		// stream's observation base outright.
		t.expect = t.mt.Expectation()
		t.mt = nil
	}
	expect := t.expect
	t.mu.Unlock()

	// Mine and fold on the immutable snapshot — no tracker lock held, so
	// reads and checkpoints proceed during the solve.
	gd := graph.Difference(expect, observed)
	rep, solved := t.mineFull(runstate.New(ctx), gd)
	newExpect := graph.Blend(expect, observed, 1-t.cfg.Lambda, t.cfg.Lambda)

	t.mu.Lock()
	t.expect, t.last = newExpect, observed
	t.finishTickLocked(&rep, solved, true)
	t.mu.Unlock()
	return rep, nil
}

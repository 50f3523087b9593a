package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/evolve"
	"github.com/dcslib/dcs/internal/datagen"
)

// watchBenchEntry is one engine's steady-state tick timing on a (graph size,
// delta size) cell.
type watchBenchEntry struct {
	Engine      string  `json:"engine"` // incremental | scratch
	NsPerTick   float64 `json:"ns_per_tick"`
	TicksPerSec float64 `json:"ticks_per_sec"`
	// ScratchTicks/IncrementalTicks/WarmHits split the timed ticks by solve
	// path (the incremental engine still resyncs every ResyncEvery ticks,
	// so its figure is the honest amortized cost, resyncs included).
	ScratchTicks     int `json:"scratch_ticks"`
	IncrementalTicks int `json:"incremental_ticks"`
	WarmHits         int `json:"warm_hits"`
}

// watchBenchResult is one cell of the sweep: a streaming watch over an
// n-vertex coauthor graph fed k-edge deltas, timed per tick under both
// engines. Speedup is scratch ns over incremental ns (>1 = incremental wins).
type watchBenchResult struct {
	N       int               `json:"n"`
	M       int               `json:"m"`
	DeltaK  int               `json:"delta_k"`
	Entries []watchBenchEntry `json:"entries"`
	Speedup float64           `json:"speedup"`
}

// watchBenchReport is the -json -watch document (a BENCH_watch.json payload).
// Before any timing, every cell's two engines are driven over an identical
// burst-laden stream and their reports checked for equivalence — the document
// cannot be emitted from a run where the engines disagreed.
type watchBenchReport struct {
	Go          string             `json:"go"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Quick       bool               `json:"quick"`
	Seed        int64              `json:"seed"`
	ResyncEvery int                `json:"resync_every"`
	Results     []watchBenchResult `json:"results"`
}

// watchStreamGen deterministically produces the delta stream for one sweep
// cell: per-tick weight churn on k randomly chosen edges of the base network
// (interaction intensities fluctuate; the topology stays put, so the
// difference graph's support — and with it the incremental engine's locality
// — mirrors the real network's), and (when bursts is set) a heavy 6-clique
// planted every 24th tick and removed on the next — the anomaly the
// equivalence pass must see both engines agree on.
type watchStreamGen struct {
	rng    *rand.Rand
	k      int
	bursts bool
	tick   int
	edges  []dcs.Edge // the base network's edge list, churn targets
	mob    []int
}

func newWatchStreamGen(seed int64, base *dcs.Graph, k int, bursts bool) *watchStreamGen {
	g := &watchStreamGen{rng: rand.New(rand.NewSource(seed)), k: k, bursts: bursts}
	base.VisitEdges(func(u, v int, w float64) {
		g.edges = append(g.edges, dcs.Edge{U: u, V: v, W: w})
	})
	seen := map[int]bool{}
	for len(g.mob) < 6 {
		if v := g.rng.Intn(base.N()); !seen[v] {
			seen[v] = true
			g.mob = append(g.mob, v)
		}
	}
	return g
}

func (g *watchStreamGen) next() []dcs.Edge {
	g.tick++
	delta := make([]dcs.Edge, 0, g.k+15)
	for i := 0; i < g.k; i++ {
		e := g.edges[g.rng.Intn(len(g.edges))]
		e.W *= 0.6 + 0.8*g.rng.Float64() // ±40% intensity swing
		delta = append(delta, e)
	}
	if g.bursts {
		var w float64 // remove the burst again by default
		if g.tick%24 == 0 {
			w = 40 // plant it
		}
		if g.tick%24 <= 1 && g.tick > 1 {
			for i := 0; i < len(g.mob); i++ {
				for j := i + 1; j < len(g.mob); j++ {
					delta = append(delta, dcs.Edge{U: g.mob[i], V: g.mob[j], W: w})
				}
			}
		}
	}
	return delta
}

// verifyWatchEquivalence drives both engines over the identical burst stream
// and errors on any divergence: step or verdict disagreement, or anomalous
// contrasts apart by more than the incremental engine's float tolerance when
// both found the same set. requireIncremental additionally demands that the
// stream exercised the incremental path — asserted only on cells whose delta
// is small relative to the graph; a delta touching a sizable fraction of the
// vertices legitimately overflows the locality cap and solves from scratch.
func verifyWatchEquivalence(base *dcs.Graph, cfgInc, cfgScr evolve.Config, seed int64, k, ticks int, requireIncremental bool) error {
	inc, err := evolve.New(base.N(), cfgInc)
	if err != nil {
		return err
	}
	scr, err := evolve.New(base.N(), cfgScr)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if _, err := inc.ObserveCtx(ctx, base); err != nil {
		return err
	}
	if _, err := scr.ObserveCtx(ctx, base); err != nil {
		return err
	}
	gen := newWatchStreamGen(seed, base, k, true)
	for i := 0; i < ticks; i++ {
		delta := gen.next()
		ri, err := inc.ObserveDeltaCtx(ctx, delta)
		if err != nil {
			return err
		}
		rs, err := scr.ObserveDeltaCtx(ctx, delta)
		if err != nil {
			return err
		}
		if ri.Step != rs.Step {
			return fmt.Errorf("step skew: %d vs %d", ri.Step, rs.Step)
		}
		if ri.Anomalous() != rs.Anomalous() {
			return fmt.Errorf("tick %d: incremental verdict %v (S=%v), scratch %v (S=%v)",
				ri.Step, ri.Anomalous(), ri.S, rs.Anomalous(), rs.S)
		}
		if ri.Anomalous() && sameSet(ri.S, rs.S) {
			diff := math.Abs(ri.Contrast - rs.Contrast)
			if diff > 1e-6*math.Max(math.Abs(rs.Contrast), 1) {
				return fmt.Errorf("tick %d: contrast %v vs %v on the same set", ri.Step, ri.Contrast, rs.Contrast)
			}
		}
	}
	if st := inc.Stats(); requireIncremental && st.IncrementalTicks == 0 {
		return fmt.Errorf("equivalence stream never exercised the incremental path: %+v", st)
	}
	return nil
}

func sameSet(a, b []int) bool {
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

// timeWatchEngine measures steady-state ns per delta tick: the tracker
// absorbs the base graph, warms up, then b.N churn ticks run back to back.
func timeWatchEngine(base *dcs.Graph, cfg evolve.Config, seed int64, k int) (watchBenchEntry, error) {
	tr, err := evolve.New(base.N(), cfg)
	if err != nil {
		return watchBenchEntry{}, err
	}
	ctx := context.Background()
	if _, err := tr.ObserveCtx(ctx, base); err != nil {
		return watchBenchEntry{}, err
	}
	gen := newWatchStreamGen(seed+1, base, k, false)
	for i := 0; i < 4; i++ { // warm up: seed the maintainer and the prior
		if _, err := tr.ObserveDeltaCtx(ctx, gen.next()); err != nil {
			return watchBenchEntry{}, err
		}
	}
	before := tr.Stats()
	var tickErr error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tr.ObserveDeltaCtx(ctx, gen.next()); err != nil && tickErr == nil {
				tickErr = err
			}
		}
	})
	if tickErr != nil {
		return watchBenchEntry{}, tickErr
	}
	after := tr.Stats()
	ns := float64(res.T.Nanoseconds()) / float64(res.N)
	return watchBenchEntry{
		NsPerTick:        ns,
		TicksPerSec:      1e9 / ns,
		ScratchTicks:     after.ScratchTicks - before.ScratchTicks,
		IncrementalTicks: after.IncrementalTicks - before.IncrementalTicks,
		WarmHits:         after.WarmHits - before.WarmHits,
	}, nil
}

// runWatchJSON runs the streaming tick sweep: graph sizes × delta sizes,
// incremental engine versus forced-scratch engine (ResyncEvery: 1) on
// identical delta streams, after an equivalence pass on each cell.
func runWatchJSON(w io.Writer, quick bool, seed int64) error {
	if seed == 0 {
		seed = 7 // bench_core_test.go's fixture seed
	}
	sizes := []int{500, 2000, 8000}
	deltas := []int{4, 32, 256}
	verifyTicks := 96
	if quick {
		sizes = []int{200, 500}
		deltas = []int{4, 32}
		verifyTicks = 48
	}
	report := watchBenchReport{
		Go:          runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Quick:       quick,
		Seed:        seed,
		ResyncEvery: evolve.DefaultResyncEvery,
	}
	for _, n := range sizes {
		// The stream's backbone: one side of the coauthor fixture pair.
		base := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: n}).G2
		cfgInc := evolve.Config{Lambda: 0.3, MinDensity: 5}
		cfgScr := evolve.Config{Lambda: 0.3, MinDensity: 5, ResyncEvery: 1}
		for _, k := range deltas {
			if err := verifyWatchEquivalence(base, cfgInc, cfgScr, seed, k, verifyTicks, 64*k <= n); err != nil {
				return fmt.Errorf("n=%d k=%d: equivalence: %w", n, k, err)
			}
			inc, err := timeWatchEngine(base, cfgInc, seed, k)
			if err != nil {
				return fmt.Errorf("n=%d k=%d incremental: %w", n, k, err)
			}
			inc.Engine = "incremental"
			scr, err := timeWatchEngine(base, cfgScr, seed, k)
			if err != nil {
				return fmt.Errorf("n=%d k=%d scratch: %w", n, k, err)
			}
			scr.Engine = "scratch"
			report.Results = append(report.Results, watchBenchResult{
				N:       base.N(),
				M:       base.M(),
				DeltaK:  k,
				Entries: []watchBenchEntry{inc, scr},
				Speedup: scr.NsPerTick / inc.NsPerTick,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

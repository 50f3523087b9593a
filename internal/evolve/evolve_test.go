package evolve

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/dcslib/dcs/internal/graph"
)

// mustNew builds a tracker, failing the test on config errors.
func mustNew(t *testing.T, n int, cfg Config) *Tracker {
	t.Helper()
	tr, err := New(n, cfg)
	if err != nil {
		t.Fatalf("New(%d, %+v): %v", n, cfg, err)
	}
	return tr
}

// observe runs one step, failing the test on errors.
func observe(t *testing.T, tr *Tracker, g *graph.Graph) Report {
	t.Helper()
	rep, err := tr.ObserveCtx(context.Background(), g)
	if err != nil {
		t.Fatalf("ObserveCtx: %v", err)
	}
	return rep
}

// baseGraph builds a stable background graph.
func baseGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for k := 0; k < 3*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, 1+rng.Float64())
		}
	}
	return b.Build()
}

// withClique overlays a heavy clique on the base graph.
func withClique(base *graph.Graph, members []int, w float64) *graph.Graph {
	b := graph.NewBuilder(base.N())
	base.VisitEdges(func(u, v int, wt float64) { b.AddEdge(u, v, wt) })
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			b.AddEdge(members[i], members[j], w)
		}
	}
	return b.Build()
}

func TestAnomalySurfacesThenAbsorbs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 120
	base := baseGraph(rng, n)
	tr := mustNew(t, n, Config{Lambda: 0.5, MinDensity: 3})

	// Warm up on the steady state.
	for i := 0; i < 5; i++ {
		if rep := observe(t, tr, base); i > 1 && rep.Anomalous() {
			t.Fatalf("steady state flagged at step %d: %v", rep.Step, rep)
		}
	}
	// Inject an anomaly: must surface immediately.
	members := []int{3, 17, 42, 77}
	anomalous := withClique(base, members, 20)
	rep := observe(t, tr, anomalous)
	if !rep.Anomalous() {
		t.Fatal("injected clique not detected")
	}
	found := map[int]bool{}
	for _, v := range rep.S {
		found[v] = true
	}
	for _, m := range members {
		if !found[m] {
			t.Fatalf("detected set %v misses planted member %d", rep.S, m)
		}
	}
	// Keep the anomaly around: the expectation absorbs it within a few steps
	// and the contrast fades below threshold.
	absorbed := false
	for i := 0; i < 10; i++ {
		if rep := observe(t, tr, anomalous); !rep.Anomalous() {
			absorbed = true
			break
		}
	}
	if !absorbed {
		t.Fatal("persistent structure never absorbed into the expectation")
	}
}

func TestExpectationConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 50
	base := baseGraph(rng, n)
	tr := mustNew(t, n, Config{Lambda: 0.5})
	for i := 0; i < 20; i++ {
		observe(t, tr, base)
	}
	// Expectation ≈ base: total weights converge.
	if math.Abs(tr.Expectation().TotalWeight()-base.TotalWeight()) > 1e-3*math.Abs(base.TotalWeight()) {
		t.Fatalf("expectation total weight %v, observed %v",
			tr.Expectation().TotalWeight(), base.TotalWeight())
	}
	if tr.Step() != 20 {
		t.Fatalf("step = %d, want 20", tr.Step())
	}
}

func TestGAModeFindsClique(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 80
	base := baseGraph(rng, n)
	tr := mustNew(t, n, Config{Lambda: 0.5, GA: true, MinDensity: 1})
	for i := 0; i < 4; i++ {
		observe(t, tr, base)
	}
	members := []int{5, 6, 7}
	rep := observe(t, tr, withClique(base, members, 30))
	if !rep.Anomalous() {
		t.Fatal("GA mode missed the planted clique")
	}
	if rep.Affinity <= 0 {
		t.Fatal("GA report must carry affinity")
	}
	for _, v := range rep.S {
		if v != 5 && v != 6 && v != 7 {
			t.Fatalf("GA set %v contains non-planted vertex", rep.S)
		}
	}
}

func TestNewRejectsCorruptingConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"negative lambda":    {Lambda: -0.1},
		"lambda above one":   {Lambda: 1.5},
		"NaN lambda":         {Lambda: math.NaN()},
		"NaN min density":    {MinDensity: math.NaN()},
		"infinite threshold": {MinDensity: math.Inf(1)},
	} {
		if _, err := New(10, cfg); err == nil {
			t.Errorf("%s: New accepted %+v", name, cfg)
		}
	}
	if _, err := New(-1, Config{}); err == nil {
		t.Error("negative vertex count accepted")
	}
	// Zero lambda means the documented default, boundary values are legal.
	for _, l := range []float64{0, 1, 0.001} {
		if _, err := New(10, Config{Lambda: l}); err != nil {
			t.Errorf("lambda %v rejected: %v", l, err)
		}
	}
}

func TestObserveErrorsOnSizeMismatch(t *testing.T) {
	tr := mustNew(t, 5, Config{})
	if _, err := tr.ObserveCtx(context.Background(), graph.NewBuilder(4).Build()); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := tr.ObserveCtx(context.Background(), nil); err == nil {
		t.Fatal("nil observation accepted")
	}
	// The failed observation must leave the tracker untouched.
	if tr.Step() != 0 {
		t.Fatalf("failed observe advanced step to %d", tr.Step())
	}
}

func TestObserveCtxInterrupts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 200
	tr := mustNew(t, n, Config{Lambda: 0.5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already done: the solver stops at its first checkpoint
	rep, err := tr.ObserveCtx(ctx, baseGraph(rng, n))
	if err != nil {
		t.Fatalf("ObserveCtx: %v", err)
	}
	if !rep.Interrupted {
		t.Fatal("cancelled observe not marked interrupted")
	}
	// The observation is folded in regardless.
	if tr.Step() != 1 || tr.Expectation().M() == 0 {
		t.Fatal("interrupted observe did not update the expectation")
	}
}

// TestConcurrentObserves drives one tracker from many goroutines; run with
// -race. Observations serialize on the tracker mutex, so the final step
// count and expectation must reflect every call exactly once.
func TestConcurrentObserves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 60
	base := baseGraph(rng, n)
	tr := mustNew(t, n, Config{Lambda: 0.5})
	const workers, rounds = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := tr.ObserveCtx(context.Background(), base); err != nil {
					t.Errorf("ObserveCtx: %v", err)
				}
				tr.Expectation() // concurrent reads race-check the swap
			}
		}()
	}
	wg.Wait()
	if tr.Step() != workers*rounds {
		t.Fatalf("step = %d, want %d", tr.Step(), workers*rounds)
	}
}

func TestReportString(t *testing.T) {
	r := Report{Step: 3}
	if r.Anomalous() || r.String() == "" {
		t.Fatal("empty report misbehaves")
	}
	r2 := Report{Step: 4, S: []int{1, 2}, Contrast: 5}
	if !r2.Anomalous() || r2.String() == "" {
		t.Fatal("non-empty report misbehaves")
	}
}

func TestBlendSemantics(t *testing.T) {
	// Blend drives the EWMA: check the identity against manual computation.
	b1 := graph.NewBuilder(3)
	b1.AddEdge(0, 1, 4)
	b2 := graph.NewBuilder(3)
	b2.AddEdge(0, 1, 2)
	b2.AddEdge(1, 2, 6)
	g := graph.Blend(b1.Build(), b2.Build(), 0.75, 0.25)
	if w := g.Weight(0, 1); math.Abs(w-3.5) > 1e-12 {
		t.Fatalf("blend weight = %v, want 3.5", w)
	}
	if w := g.Weight(1, 2); math.Abs(w-1.5) > 1e-12 {
		t.Fatalf("blend weight = %v, want 1.5", w)
	}
}

package partest

import (
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// TestMain raises GOMAXPROCS so that degree 8 of the ladder is a real
// parallelism degree (par.Workers caps at GOMAXPROCS): on a 1-CPU runner the
// whole harness would otherwise silently test the sequential path three
// times.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 8 {
		runtime.GOMAXPROCS(8)
	}
	os.Exit(m.Run())
}

type fixture struct {
	name string
	g    *graph.Graph
}

// adFixtures is the graph family the average-degree equivalence tests sweep:
// random signed graphs from sparse to dense, hostile float magnitudes,
// many-component graphs and the degenerate sizes.
func adFixtures(rng *rand.Rand) []fixture {
	return []fixture{
		{"empty", Empty()},
		{"singleton", Singleton()},
		{"tiny", RandomSigned(rng, 3, 0.9, 3)},
		{"sparse", RandomSigned(rng, 40, 0.05, 5)},
		{"dense", RandomSigned(rng, 30, 0.5, 5)},
		{"unit_ties", RandomSigned(rng, 25, 0.4, 1)}, // weights ∈ {−1, 1}: heavy ties
		{"hostile", HostileWeights(rng, 35, 0.2)},
		{"disconnected", Disconnected(rng, 7, 6, 4)},
	}
}

// The equivalence tests below run every fixture on each storage layout
// (forEachLayout): the reference is the same solver at degree 1 on a
// never-cancelled State, run on the heap fixture; every degree of the ladder
// solves the layout's copy, and unchanged checks after each solver call that
// no graph was written.

// TestGreedyParMatchesSequential: DCSGreedy on many-component graphs of
// random shape, where its concurrent G_D and G_D⁺ peels each sweep dozens of
// components, returns the same bits at every degree and on every layout.
func TestGreedyParMatchesSequential(t *testing.T) {
	forEachLayout(t, func(t *testing.T, load func(*graph.Graph) *graph.Graph) {
		rng := rand.New(rand.NewSource(41))
		for round := 0; round < 8; round++ {
			fx := Disconnected(rng, 2+rng.Intn(20), rng.Intn(30), 1+rng.Intn(6))
			g := load(fx)
			check := unchanged(t, fx, g)
			seq := core.DCSGreedy(runstate.New(nil), fx, 1)
			check("round %d: DCSGreedy", round)
			for _, deg := range Degrees {
				got := core.DCSGreedy(runstate.New(nil), g, deg)
				check("round %d: DCSGreedy degree %d", round, deg)
				if !reflect.DeepEqual(got, seq) {
					t.Fatalf("round %d degree %d:\n got %+v\nwant %+v", round, deg, got, seq)
				}
			}
		}
	})
}

func TestDCSGreedyParMatchesSequential(t *testing.T) {
	forEachLayout(t, func(t *testing.T, load func(*graph.Graph) *graph.Graph) {
		rng := rand.New(rand.NewSource(42))
		for round := 0; round < 8; round++ {
			for _, fx := range adFixtures(rng) {
				g := load(fx.g)
				check := unchanged(t, fx.g, g)
				seq := core.DCSGreedy(runstate.New(nil), fx.g, 1)
				check("%s round %d: DCSGreedy", fx.name, round)
				if err := core.ValidateAD(fx.g, seq); err != nil {
					t.Fatalf("%s round %d: sequential result invalid: %v", fx.name, round, err)
				}
				for _, deg := range Degrees {
					got := core.DCSGreedy(runstate.New(nil), g, deg)
					check("%s round %d: DCSGreedy degree %d", fx.name, round, deg)
					if !reflect.DeepEqual(got, seq) {
						t.Fatalf("%s round %d degree %d:\n got %+v\nwant %+v", fx.name, round, deg, got, seq)
					}
					if err := core.ValidateAD(g, got); err != nil {
						t.Fatalf("%s round %d degree %d: certificate invalid: %v", fx.name, round, deg, err)
					}
				}
			}
		}
	})
}

func TestTopKParMatchesSequential(t *testing.T) {
	forEachLayout(t, func(t *testing.T, load func(*graph.Graph) *graph.Graph) {
		rng := rand.New(rand.NewSource(43))
		for round := 0; round < 4; round++ {
			for _, fx := range adFixtures(rng) {
				g := load(fx.g)
				check := unchanged(t, fx.g, g)
				seq, _ := core.TopKAverageDegree(runstate.New(nil), fx.g, 4, 1)
				check("%s round %d: TopKAverageDegree", fx.name, round)
				for _, deg := range Degrees {
					got, _ := core.TopKAverageDegree(runstate.New(nil), g, 4, deg)
					check("%s round %d: TopKAverageDegree degree %d", fx.name, round, deg)
					if !reflect.DeepEqual(got, seq) {
						t.Fatalf("%s round %d degree %d:\n got %+v\nwant %+v", fx.name, round, deg, got, seq)
					}
					for i, res := range got {
						if err := core.ValidateAD(g, res); err != nil {
							t.Fatalf("%s round %d degree %d: result %d invalid: %v", fx.name, round, deg, i, err)
						}
					}
				}
			}
		}
	})
}

func TestRatioParMatchesSequential(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		p, overlap float64
	}{
		{"overlaid", 30, 0.3, 1.0},  // every G2 edge overlays G1: real binary search
		{"unbounded", 30, 0.3, 0.6}, // G2-only edges likely: +Inf fast path
		{"sparse", 50, 0.06, 1.0},   // disconnected difference graphs inside probes
		{"tiny", 4, 0.9, 1.0},       //
	}
	forEachLayout(t, func(t *testing.T, load func(*graph.Graph) *graph.Graph) {
		rng := rand.New(rand.NewSource(44))
		for round := 0; round < 4; round++ {
			for _, tc := range cases {
				h1, h2 := PositivePair(rng, tc.n, tc.p, tc.overlap)
				g1, g2 := load(h1), load(h2)
				check := unchanged(t, h1, h2, g1, g2)
				seq := core.MaxRatioContrast(runstate.New(nil), h1, h2, 1)
				check("%s round %d: MaxRatioContrast", tc.name, round)
				for _, deg := range Degrees {
					got := core.MaxRatioContrast(runstate.New(nil), g1, g2, deg)
					check("%s round %d: MaxRatioContrast degree %d", tc.name, round, deg)
					if !reflect.DeepEqual(got, seq) {
						t.Fatalf("%s round %d degree %d:\n got %+v\nwant %+v", tc.name, round, deg, got, seq)
					}
				}
			}
		}
	})
}

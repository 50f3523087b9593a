package partest

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/cores"
	"github.com/dcslib/dcs/internal/densest"
	"github.com/dcslib/dcs/internal/egoscan"
	"github.com/dcslib/dcs/internal/evolve"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/oqc"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/simplex"
	"github.com/dcslib/dcs/internal/topics"
)

// Run-to-run determinism. Go randomizes the iteration order of every
// `range` over a map, so a solver that folds floats, or picks an argmax
// key at a tie, in map order gives different bits on different runs of
// the same input. TestRepeatBitwise calls into every solver and graph
// package repeatedly in one process and requires every run's output to
// hash identically, every float compared by its bits. Repeating is what
// exposes such a fold: each run draws a fresh iteration order.

// repeatReps is the default number of runs per case; each run after the
// first is one more draw of every map's iteration order.
const repeatReps = 20

// digest hashes a result value in full: every int, bool and string, and
// every float by math.Float64bits, so two runs agree only if their outputs
// are bitwise identical. Maps hash in sorted key order (their content is
// the output, not their iteration order), and a *graph.Graph hashes its
// CSR arrays. A kind it cannot hash fails the test rather than being
// skipped.
type digest struct {
	t   *testing.T
	h   hash.Hash
	buf [8]byte
}

var graphType = reflect.TypeFor[*graph.Graph]()

func digestOf(t *testing.T, v any) [sha256.Size]byte {
	t.Helper()
	d := &digest{t: t, h: sha256.New()}
	d.value(reflect.ValueOf(v))
	var sum [sha256.Size]byte
	d.h.Sum(sum[:0])
	return sum
}

func (d *digest) u64(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}

func (d *digest) value(v reflect.Value) {
	if v.Type() == graphType && !v.IsNil() {
		off, ids, ws, drop := v.Interface().(*graph.Graph).CSR()
		for _, part := range []any{off, ids, ws, drop} {
			d.value(reflect.ValueOf(part))
		}
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			d.u64(1)
		} else {
			d.u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.u64(math.Float64bits(v.Float()))
	case reflect.String:
		d.u64(uint64(v.Len()))
		d.h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		d.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			d.u64(0)
			return
		}
		d.u64(1)
		d.value(v.Elem())
	case reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int {
			switch a.Kind() {
			case reflect.Int:
				return cmp.Compare(a.Int(), b.Int())
			case reflect.String:
				return cmp.Compare(a.String(), b.String())
			}
			d.t.Fatalf("digest: cannot order map keys of type %s", a.Type())
			return 0
		})
		d.u64(uint64(len(keys)))
		for _, k := range keys {
			d.value(k)
			d.value(v.MapIndex(k))
		}
	default:
		d.t.Fatalf("digest: cannot hash a %s", v.Type())
	}
}

// repeatCase is one deterministic call on a fixed input; run returns its
// whole output.
type repeatCase struct {
	name string
	reps int // runs; 0 means repeatReps
	run  func(t *testing.T) any
}

// egoscanRepro is the input that exposed EgoScan's map-order grow step:
// vertex 4's gain against {0,1,2,3} is 0.3 + 0.4 − 0.7, exactly 0 when
// summed in member order (4 stays out) and a +5.6e-17 residue in other
// orders (4 gets in). Its case also pins the member-order answer.
func egoscanRepro() *graph.Graph {
	return graph.FromEdges(5, []graph.Edge{
		{U: 3, V: 0, W: 2}, {U: 3, V: 1, W: 2}, {U: 3, V: 2, W: 2},
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 1},
		{U: 0, V: 4, W: 0.3}, {U: 1, V: 4, W: 0.4}, {U: 2, V: 4, W: -0.7},
	})
}

// deltaStream is a fixed edge-delta stream over n vertices: churn on
// random pairs with small integer weights (ties), edge removals, and a
// planted positive clique every eighth tick.
func deltaStream(rng *rand.Rand, n, ticks int) [][]graph.Edge {
	stream := make([][]graph.Edge, ticks)
	for t := range stream {
		var d []graph.Edge
		for i := 0; i < 10; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				d = append(d, graph.Edge{U: u, V: v, W: float64(rng.Intn(4))})
			}
		}
		if t%8 == 5 {
			base := rng.Intn(n - 5)
			for a := base; a < base+5; a++ {
				for b := a + 1; b < base+5; b++ {
					d = append(d, graph.Edge{U: a, V: b, W: 6})
				}
			}
		}
		stream[t] = d
	}
	return stream
}

func repeatCases() []repeatCase {
	rng := rand.New(rand.NewSource(27))
	signed := []fixture{
		{"unit_ties", RandomSigned(rng, 25, 0.4, 1)}, // weights ∈ {−1, 1}
		{"dense", RandomSigned(rng, 30, 0.5, 5)},
		{"hostile", HostileWeights(rng, 35, 0.2)},
		{"disconnected", Disconnected(rng, 7, 6, 4)},
	}
	g1, g2 := PositivePair(rng, 30, 0.3, 1.0)
	unbounded1, unbounded2 := PositivePair(rng, 30, 0.3, 0.6)
	stream := deltaStream(rng, g1.N(), 24)
	run := func() *runstate.State { return runstate.New(nil) }
	ga := core.GAOptions{}
	gaPar := core.GAOptions{Parallelism: 2}

	cases := []repeatCase{
		{"egoscan/repro", 200, func(t *testing.T) any {
			res := egoscan.Scan(run(), egoscanRepro())
			if want := []int{0, 1, 2, 3}; !slices.Equal(res.S, want) {
				t.Fatalf("Scan returned %v, want %v", res.S, want)
			}
			return res
		}},
		{"core/MaxRatioContrast/overlaid", 0, func(t *testing.T) any { return core.MaxRatioContrast(run(), g1, g2, 1) }},
		{"core/MaxRatioContrast/unbounded", 0, func(t *testing.T) any {
			return core.MaxRatioContrast(run(), unbounded1, unbounded2, 2)
		}},
		{"cores/Numbers", 0, func(t *testing.T) any { return cores.Numbers(run(), g1) }},
		{"graph/Difference", 0, func(t *testing.T) any { return graph.Difference(g1, g2) }},
		{"graph/Union", 0, func(t *testing.T) any {
			u := graph.NewUnion(g1, g2)
			return []*graph.Graph{u.DifferenceAlphaInto(0.7, &graph.Graph{}), u.DifferenceAlphaInto(1.3, &graph.Graph{})}
		}},
		{"graph/ApplyDelta", 0, func(t *testing.T) any {
			g := g1
			for _, d := range stream {
				g = graph.ApplyDelta(g, d)
			}
			return g
		}},
		{"graph/Maintainer", 0, func(t *testing.T) any {
			m := graph.NewMaintainer(g1, g2, 0.3)
			var out []any
			for _, d := range stream[:8] {
				out = append(out, m.BeginTick(d))
				m.EndTick()
				out = append(out, m.DiffGraph(), m.Expectation(), m.Scale())
			}
			return out
		}},
		{"evolve/incremental", 0, func(t *testing.T) any {
			return trackStream(t, g1.N(), evolve.Config{MinDensity: 2, ResyncEvery: 6}, stream)
		}},
		{"evolve/scratch", 0, func(t *testing.T) any {
			return trackStream(t, g1.N(), evolve.Config{MinDensity: 2, ResyncEvery: 1}, stream)
		}},
		{"evolve/affinity", 0, func(t *testing.T) any {
			return trackStream(t, g1.N(), evolve.Config{GA: true, ResyncEvery: 6}, stream[:12])
		}},
		{"topics", 0, func(t *testing.T) any {
			m := topics.Build(topicEra1, topicEra2, topics.Options{})
			return []any{m.Words, m.Vocab, m.G1, m.G2, m.Emerging(3), m.Disappearing(3)}
		}},
	}
	for _, fx := range signed {
		g := fx.g
		half := make([]int, 0, g.N()/2)
		for v := 0; v < g.N(); v += 2 {
			half = append(half, v)
		}
		cases = append(cases, []repeatCase{
			{"core/DCSGreedy/" + fx.name, 0, func(t *testing.T) any { return core.DCSGreedy(run(), g, 2) }},
			{"core/TopKAverageDegree/" + fx.name, 0, func(t *testing.T) any {
				res, _ := core.TopKAverageDegree(run(), g, 4, 1)
				return res
			}},
			{"core/NewSEA/" + fx.name, 0, func(t *testing.T) any { return core.NewSEA(run(), g) }},
			{"core/SEACDRefineFull/" + fx.name, 0, func(t *testing.T) any { return core.SEACDRefineFull(run(), g, gaPar) }},
			{"core/CollectCliques/" + fx.name, 0, func(t *testing.T) any {
				cl, _ := core.CollectCliques(run(), g, gaPar)
				return cl
			}},
			{"core/TopKGraphAffinity/" + fx.name, 0, func(t *testing.T) any {
				res, _ := core.TopKGraphAffinity(run(), g, 3, ga)
				return res
			}},
			{"densest/Greedy/" + fx.name, 0, func(t *testing.T) any { return densest.Greedy(run(), g, 1) }},
			{"densest/LocalImprove/" + fx.name, 0, func(t *testing.T) any { return densest.LocalImprove(run(), g, half) }},
			{"egoscan/" + fx.name, 0, func(t *testing.T) any { return egoscan.Scan(run(), g) }},
			{"oqc/Best/" + fx.name, 0, func(t *testing.T) any { return oqc.Best(run(), g, 1.0/3) }},
			{"oqc/LocalSearch/" + fx.name, 0, func(t *testing.T) any { return oqc.LocalSearch(run(), g, 0.5, 0) }},
			{"simplex/" + fx.name, 0, func(t *testing.T) any {
				x := simplex.Uniform(g.N(), half)
				return []any{simplex.GradientMap(g, x), simplex.KKTViolation(g, x), simplex.Affinity(g, x)}
			}},
		}...)
	}
	return cases
}

// trackStream feeds stream to a fresh tracker and returns every report and
// the final tick statistics.
func trackStream(t *testing.T, n int, cfg evolve.Config, stream [][]graph.Edge) any {
	tr, err := evolve.New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reps []evolve.Report
	for _, d := range stream {
		rep, err := tr.ObserveDeltaCtx(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	return []any{reps, tr.Stats(), tr.Expectation()}
}

var topicEra1 = []string{
	"Mining Association Rules in Large Databases",
	"Fast Algorithms for Mining Association Rules",
	"Association Rules Mining with Constraints",
	"Knowledge Discovery in Time Series Databases",
	"Indexing Time Series Under Scaling",
	"Support Vector Machines for Text",
	"Training Support Vector Machines",
	"Decision Trees for Knowledge Discovery",
}

var topicEra2 = []string{
	"Community Detection in Social Networks",
	"Influence Maximization in Social Networks",
	"Link Prediction in Social Networks",
	"Matrix Factorization for Recommendation",
	"Scalable Matrix Factorization",
	"Deep Learning for Time Series",
	"Social Networks and Matrix Factorization",
	"Large Scale Matrix Factorization",
}

// TestRepeatBitwise runs every case repeatedly and fails on the first run
// whose output digest differs from the first run's.
func TestRepeatBitwise(t *testing.T) {
	for _, c := range repeatCases() {
		t.Run(c.name, func(t *testing.T) {
			reps := c.reps
			if reps == 0 {
				reps = repeatReps
			}
			want := digestOf(t, c.run(t))
			for r := 1; r < reps; r++ {
				if got := digestOf(t, c.run(t)); got != want {
					t.Fatalf("run %d of %d: output digest %x differs from run 0's %x", r, reps, got, want)
				}
			}
		})
	}
}

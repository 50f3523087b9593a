package graph

import (
	"math"
	"math/rand"
	"testing"
)

// adopt copies g's CSR arrays into fresh caller-owned arrays and hands them
// to FromCSR with release, as dataio's mmap open path does with a mapping.
func adopt(t *testing.T, g *Graph, release func()) *Graph {
	t.Helper()
	off, ids, ws, _ := g.Compact().CSR()
	b, err := FromCSR(g.N(), append([]int(nil), off...), append([]int32(nil), ids...),
		append([]float64(nil), ws...), release)
	if err != nil {
		t.Fatalf("FromCSR: %v", err)
	}
	return b
}

// sameAsHeap asserts got and want are the same graph bitwise: headers, every
// edge weight, and the per-vertex accessors.
func sameAsHeap(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.TotalWeight() != want.TotalWeight() {
		t.Fatalf("%s: header mismatch: n=%d m=%d tw=%v, want n=%d m=%d tw=%v",
			label, got.N(), got.M(), got.TotalWeight(), want.N(), want.M(), want.TotalWeight())
	}
	ge, we := edgeMap(got), edgeMap(want)
	if len(ge) != len(we) {
		t.Fatalf("%s: %d edges, want %d", label, len(ge), len(we))
	}
	for k, w := range we {
		if ge[k] != w {
			t.Fatalf("%s: edge %v = %v, want %v", label, k, ge[k], w)
		}
	}
	for u := 0; u < want.N(); u++ {
		if got.OutDegree(u) != want.OutDegree(u) {
			t.Fatalf("%s: OutDegree(%d) = %d, want %d", label, u, got.OutDegree(u), want.OutDegree(u))
		}
		if got.WeightedDegree(u) != want.WeightedDegree(u) {
			t.Fatalf("%s: WeightedDegree(%d) = %v, want %v", label, u, got.WeightedDegree(u), want.WeightedDegree(u))
		}
		gn, wn := got.Neighbors(u), want.Neighbors(u)
		if len(gn) != len(wn) {
			t.Fatalf("%s: len(Neighbors(%d)) = %d, want %d", label, u, len(gn), len(wn))
		}
		for i := range gn {
			if gn[i] != wn[i] {
				t.Fatalf("%s: Neighbors(%d)[%d] = %+v, want %+v", label, u, i, gn[i], wn[i])
			}
			if w := got.Weight(u, wn[i].To); w != wn[i].W {
				t.Fatalf("%s: Weight(%d,%d) = %v, want %v", label, u, wn[i].To, w, wn[i].W)
			}
		}
	}
}

// TestBackedEquivalence drives every Graph accessor on a graph adopted
// through FromCSR over caller-owned arrays, its views, and graphs merged
// from it, asserting bitwise equality with the Builder-built twin.
func TestBackedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{0, 1, 2, 17, 80} {
		h := randomTestGraph(rng, n, 0.15)
		b := adopt(t, h, nil)
		sameAsHeap(t, "base", b, h)
		sameBits(t, "base arrays", b, h)

		// GD+ and views over adopted storage.
		sameAsHeap(t, "pos", b.PositivePart(), h.PositivePart())
		if n > 3 {
			S := []int{0, 2, n - 1}
			sameAsHeap(t, "without", b.WithoutVertices(S), h.WithoutVertices(S))
			sameAsHeap(t, "without+pos", b.WithoutVertices(S).PositivePart(), h.WithoutVertices(S).PositivePart())
			sameAsHeap(t, "without compact", b.WithoutVertices(S).Compact(), h.WithoutVertices(S).Compact())
		}
		if b.Compact() != b {
			t.Fatal("Compact() on a plain graph must return the graph itself")
		}

		// Merge machinery: difference, blend, delta, maintainer seeding.
		h2 := randomTestGraph(rng, n, 0.15)
		b2 := adopt(t, h2, nil)
		sameAsHeap(t, "difference", DifferenceAlpha(b2, b, 0.7), DifferenceAlpha(h2, h, 0.7))
		sameAsHeap(t, "blend", Blend(b, b2, 0.25, 0.75), Blend(h, h2, 0.25, 0.75))
		if n > 2 {
			delta := []Edge{{U: 0, V: 1, W: 3.5}, {U: 1, V: 2, W: -2}}
			sameAsHeap(t, "delta", ApplyDelta(b, delta), ApplyDelta(h, delta))
			mb := NewMaintainer(b, b2, 0.5)
			mh := NewMaintainer(h, h2, 0.5)
			sameAsHeap(t, "maintainer diff", mb.DiffGraph(), mh.DiffGraph())
		}

		// Scalar transforms copy off adopted storage.
		sameAsHeap(t, "negate", b.Negate(), h.Negate())
		sameAsHeap(t, "scale", b.Scale(2.5), h.Scale(2.5))
	}
}

func TestBackedRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	released := 0
	g := adopt(t, randomTestGraph(rng, 20, 0.2), func() { released++ })
	if released != 0 {
		t.Fatal("release hook ran before Release")
	}
	g.Release()
	if released != 1 {
		t.Fatalf("release hook ran %d times, want 1", released)
	}
	g.Release() // idempotent
	if released != 1 {
		t.Fatalf("Release must run the hook at most once; ran %d times", released)
	}
}

// TestFromCSRBackedRejectsCorruptInput is the rejection table of FromCSR,
// the one CSR validator, over the inputs a corrupt or hostile file can
// produce. (It kept its name when FromCSRBacked's merge validator became
// FromCSR.)
func TestFromCSRBackedRejectsCorruptInput(t *testing.T) {
	// A valid 3-vertex path to perturb: edges (0,1,w=2), (1,2,w=-3).
	base := func() (off []int, ids []int32, ws []float64) {
		return []int{0, 1, 3, 4},
			[]int32{1, 0, 2, 1},
			[]float64{2, 2, -3, -3}
	}
	cases := []struct {
		name string
		mut  func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64)
	}{
		{"bad n", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			return -1, off, ids, ws
		}},
		{"vertex cap", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			n := MaxVertices
			return n + 1, off, ids, ws
		}},
		{"offsets length", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			return 3, off[:3], ids, ws
		}},
		{"parallel length mismatch", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			return 3, off, ids, ws[:3]
		}},
		{"offsets end short", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			off[3] = 3
			return 3, off, ids, ws
		}},
		{"offsets decrease", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			off[1], off[2] = 3, 1
			return 3, off, ids, ws
		}},
		{"neighbor out of range", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ids[2] = 9
			return 3, off, ids, ws
		}},
		{"self-loop", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ids[0] = 0
			return 3, off, ids, ws
		}},
		{"row not increasing", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ids[1], ids[2] = 2, 0
			return 3, off, ids, ws
		}},
		{"zero weight", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ws[0], ws[1] = 0, 0
			return 3, off, ids, ws
		}},
		{"mirror weight mismatch", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ws[1] = 2.0000001
			return 3, off, ids, ws
		}},
		{"non-finite weight", func(off []int, ids []int32, ws []float64) (int, []int, []int32, []float64) {
			ws[2], ws[3] = math.Inf(-1), math.Inf(-1)
			return 3, off, ids, ws
		}},
		// A structurally sorted one-directional entry: only the mirror
		// check rejects it.
		{"asymmetric entry", func([]int, []int32, []float64) (int, []int, []int32, []float64) {
			return 2, []int{0, 1, 1}, []int32{1}, []float64{2}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, off, ids, ws := tc.mut(base())
			if _, err := FromCSR(n, off, ids, ws, nil); err == nil {
				t.Fatalf("FromCSR accepted corrupt input (%s)", tc.name)
			}
		})
	}
	// The unperturbed base must be accepted, or the cases above prove nothing.
	off, ids, ws := base()
	if _, err := FromCSR(3, off, ids, ws, nil); err != nil {
		t.Fatalf("FromCSR rejected valid input: %v", err)
	}
}

// TestPositivePartMemoized asserts the plain-graph memoization: two calls
// return the same materialization, and views still get correct (fresh)
// results.
func TestPositivePartMemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := randomTestGraph(rng, 40, 0.2)
	p1, p2 := g.PositivePart(), g.PositivePart()
	if p1 != p2 {
		t.Fatal("PositivePart not memoized on a plain graph")
	}
	sameAsHeap(t, "memoized pos", p1, rebuildPositive(g))
	v := g.WithoutVertices([]int{1, 2})
	vp := v.PositivePart()
	if vp.IsView() {
		t.Fatal("PositivePart on a view returned a view")
	}
	sameAsHeap(t, "view pos", vp, rebuildPositive(v))
	if v.PositivePart() == vp {
		t.Fatal("PositivePart memoized on a view")
	}
}

// rebuildPositive builds g's positive edges afresh with a Builder.
func rebuildPositive(g *Graph) *Graph {
	b := NewBuilder(g.N())
	g.VisitEdges(func(u, v int, w float64) {
		if w > 0 {
			b.AddEdge(u, v, w)
		}
	})
	return b.Build()
}

// fuzzWeights is the weight alphabet of FuzzFromCSR: a few repeated finite
// values, so fuzzed rows can carry bitwise-equal mirrors, plus the invalid
// ones.
var fuzzWeights = [8]float64{1, -1, 2, 0.5, -3, 0, math.NaN(), math.Inf(1)}

// csrFromBytes decodes fuzz bytes into small CSR arrays: n ≤ 16, up to 63
// entries, offsets and ids as signed bytes (so negative, decreasing and
// out-of-range values occur), weights from fuzzWeights, and a flag byte that
// lengthens off or shortens ws by one. Missing bytes read as 0.
func csrFromBytes(data []byte) (n int, off []int, ids []int32, ws []float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n = int(next() % 17)
	e := int(next() % 64)
	flags := next()
	off = make([]int, n+1+int(flags&1))
	for i := range off {
		off[i] = int(int8(next()))
	}
	ids = make([]int32, e)
	for i := range ids {
		ids[i] = int32(int8(next()))
	}
	ws = make([]float64, e-int(flags>>1&1)*min(e, 1))
	for i := range ws {
		ws[i] = fuzzWeights[next()%8]
	}
	return n, off, ids, ws
}

// csrBytes is csrFromBytes's inverse on graphs it can express, for seeds.
func csrBytes(g *Graph) []byte {
	off, ids, ws, _ := g.CSR()
	b := []byte{byte(g.N()), byte(len(ids)), 0}
	for _, o := range off {
		b = append(b, byte(o))
	}
	for _, id := range ids {
		b = append(b, byte(id))
	}
	for _, w := range ws {
		for k, fw := range fuzzWeights {
			if w == fw {
				b = append(b, byte(k))
			}
		}
	}
	return b
}

// FuzzFromCSR feeds the validator arbitrary small CSR arrays: it must never
// panic, and a graph it accepts must equal, array for array and with weight
// bits compared, the graph a Builder makes from its edge list.
func FuzzFromCSR(f *testing.F) {
	f.Add(csrBytes(FromEdges(3, []Edge{{0, 1, 2}, {1, 2, -3}})))
	f.Add(csrBytes(FromEdges(6, []Edge{{0, 1, 1}, {0, 5, 0.5}, {1, 2, -1}, {2, 3, 2}, {3, 5, -3}, {4, 5, 1}})))
	f.Add(csrBytes(Complete(5, 0.5)))
	f.Add(csrBytes(NewBuilder(4).Build()))
	f.Add([]byte{2, 1, 0, 0, 1, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, off, ids, ws := csrFromBytes(data)
		g, err := FromCSR(n, off, ids, ws, nil)
		if err != nil {
			return
		}
		sameBits(t, "FromCSR vs Builder", g, FromEdges(n, g.Edges()))
	})
}

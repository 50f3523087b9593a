package dataio

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/graph"
)

func TestReadSNAP(t *testing.T) {
	in := `# comment
10 20
20 30 2.5
10 30 1.5
5 5 9
`
	g, orig, err := ReadSNAP(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 {
		t.Fatalf("n = %d, want 4 (self-loop-only vertex 5 interned, its edge dropped)", g.N())
	}
	if g.M() != 3 {
		t.Fatalf("m = %d, want 3", g.M())
	}
	// Vertex 10 is the first seen → id 0; unweighted edge gets weight 1.
	// Vertex 5 appears only on a self-loop line: present in the id table,
	// isolated in the graph.
	if orig[0] != 10 || orig[1] != 20 || orig[2] != 30 || orig[3] != 5 {
		t.Fatalf("orig = %v", orig)
	}
	if g.OutDegree(3) != 0 {
		t.Fatalf("self-loop-only vertex must be isolated, degree %d", g.OutDegree(3))
	}
	if w := g.Weight(0, 1); w != 1 {
		t.Fatalf("weight(10,20) = %v, want 1", w)
	}
	if w := g.Weight(1, 2); w != 2.5 {
		t.Fatalf("weight(20,30) = %v, want 2.5", w)
	}
}

func TestSNAPErrors(t *testing.T) {
	cases := []string{
		"1 2 3 4\n",  // too many fields
		"1\n",        // too few
		"-1 2\n",     // negative id
		"a b\n",      // non-integer
		"1 2 NaN\n",  // non-finite
		"1 2 +Inf\n", // non-finite
	}
	for i, in := range cases {
		if _, _, err := ReadSNAP(strings.NewReader(in)); err == nil {
			t.Errorf("case %d (%q): expected error", i, in)
		}
	}
}

func TestSNAPRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		b := graph.NewBuilder(n)
		for k := 0; k < 2*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, float64(rng.Intn(9)-4))
			}
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := WriteSNAP(&buf, g); err != nil {
			return false
		}
		g2, _, err := ReadSNAP(&buf)
		if err != nil {
			return false
		}
		// Isolated vertices are not representable in SNAP, so compare edges.
		if g2.M() != g.M() || g2.TotalWeight() != g.TotalWeight() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadSNAPSelfLoopOnlyVertex(t *testing.T) {
	// A vertex whose ONLY occurrences are self-loop lines must still be in
	// the remap: n and the orig table have to agree with the corpus.
	in := "7 7\n7 7\n1 2 3\n"
	g, orig, err := ReadSNAP(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || len(orig) != 3 {
		t.Fatalf("n=%d len(orig)=%d, want 3 each", g.N(), len(orig))
	}
	if orig[0] != 7 || orig[1] != 1 || orig[2] != 2 {
		t.Fatalf("orig = %v, want [7 1 2] (first-appearance order)", orig)
	}
	if g.M() != 1 || g.Weight(1, 2) != 3 {
		t.Fatalf("m=%d w(1,2)=%v", g.M(), g.Weight(1, 2))
	}
}

func TestReadMatrixMarket(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
4 4 3
2 1 5.0
3 1 -2
4 4 9
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("n=%d m=%d, want 4, 2 (diagonal dropped)", g.N(), g.M())
	}
	if w := g.Weight(0, 1); w != 5 {
		t.Fatalf("weight = %v, want 5", w)
	}
	if w := g.Weight(0, 2); w != -2 {
		t.Fatalf("weight = %v, want -2", w)
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n"
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || g.Weight(0, 1) != 1 {
		t.Fatal("pattern entries must get weight 1")
	}
}

func TestReadMatrixMarketGeneralAveraging(t *testing.T) {
	// A general matrix storing both triangles: (i,j) and (j,i) entries must
	// average, not sum — summation doubled every weight.
	in := `%%MatrixMarket matrix coordinate real general
4 4 5
1 2 4.0
2 1 2.0
3 4 7.0
1 3 5.0
3 1 5.0
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 {
		t.Fatalf("m = %d, want 3", g.M())
	}
	if w := g.Weight(0, 1); w != 3 {
		t.Fatalf("weight(1,2) = %v, want the average 3", w)
	}
	if w := g.Weight(2, 3); w != 7 {
		t.Fatalf("weight(3,4) = %v, want 7 (single entry untouched)", w)
	}
	if w := g.Weight(0, 2); w != 5 {
		t.Fatalf("weight(1,3) = %v, want 5 (equal mirrored entries)", w)
	}

	// A header with no symmetry field is general per the format default.
	in2 := "%%MatrixMarket matrix coordinate real\n2 2 2\n1 2 6\n2 1 2\n"
	g2, err := ReadMatrixMarket(strings.NewReader(in2))
	if err != nil {
		t.Fatal(err)
	}
	if w := g2.Weight(0, 1); w != 4 {
		t.Fatalf("weight = %v, want 4", w)
	}

	// Symmetric files keep the old semantics: entries added as given.
	in3 := "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 6\n"
	g3, err := ReadMatrixMarket(strings.NewReader(in3))
	if err != nil {
		t.Fatal(err)
	}
	if w := g3.Weight(0, 1); w != 6 {
		t.Fatalf("weight = %v, want 6", w)
	}
}

// failAfterReader yields its content, then an error on the next Read —
// standing in for a stream that must not be read past the final entry.
type failAfterReader struct {
	s    *strings.Reader
	done bool
}

func (r *failAfterReader) Read(p []byte) (int, error) {
	if r.s.Len() > 0 {
		return r.s.Read(p)
	}
	if !r.done {
		r.done = true
		return 0, fmt.Errorf("read past the final MatrixMarket entry")
	}
	return 0, fmt.Errorf("read again past the final entry")
}

func TestMatrixMarketStopsAtLastEntry(t *testing.T) {
	// The old loop ran sc.Scan() once more after the final entry, consuming
	// (and charging errors of) input beyond the matrix. With the reader
	// erroring right after the last entry, that extra Scan turned a fully
	// valid parse into a failure.
	in := "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5\n3 2 1\n"
	g, err := ReadMatrixMarket(&failAfterReader{s: strings.NewReader(in)})
	if err != nil {
		t.Fatalf("reader touched past the final entry: %v", err)
	}
	if g.M() != 2 {
		t.Fatalf("m = %d, want 2", g.M())
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2 1\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 2 1\n", // non-square
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 2 1\n", // truncated
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n0 2 1\n", // bad index
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 NaN\n",
		"%%MatrixMarket matrix coordinate real general\n-1 -1 1\n1 1 1\n",                 // negative dimension (panicked)
		"%%MatrixMarket matrix coordinate real general\n2 2 -1\n1 2 1\n",                  // negative nnz (silent empty graph)
		"%%MatrixMarket matrix coordinate real general\n2147483648 2147483648 1\n1 2 1\n", // dimension beyond graph.MaxVertices
		"%%MatrixMarket matrix coordinate real general\n",                                 // header only, no size line
		"%%MatrixMarket matrix coordinate real general\n% c\n\n",                          // comments only, no size line
	}
	for i, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		b := graph.NewBuilder(n)
		for k := 0; k < 2*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, float64(rng.Intn(9)-4)/2)
			}
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, g); err != nil {
			return false
		}
		g2, err := ReadMatrixMarket(&buf)
		if err != nil {
			return false
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			return false
		}
		ok := true
		g.VisitEdges(func(u, v int, w float64) {
			if g2.Weight(u, v) != w {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

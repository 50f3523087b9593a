package dataio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/dcslib/dcs/internal/graph"
)

func TestRoundTrip(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 2.5)
	b.AddEdge(2, 4, -1.25)
	b.AddEdge(1, 3, 100)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d, want %d %d", g2.N(), g2.M(), g.N(), g.M())
	}
	g.VisitEdges(func(u, v int, w float64) {
		if g2.Weight(u, v) != w {
			t.Errorf("weight (%d,%d) = %v, want %v", u, v, g2.Weight(u, v), w)
		}
	})
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		b := graph.NewBuilder(n)
		for k := 0; k < 2*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, float64(rng.Intn(19)-9)/2)
			}
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			return false
		}
		g2, err := ReadGraph(&buf)
		if err != nil {
			return false
		}
		if g2.N() != g.N() || g2.M() != g.M() || g2.TotalWeight() != g.TotalWeight() {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadGraphComments(t *testing.T) {
	in := "# a comment\n\nn 3\n# another\n0 1 2.5\n1\t2\t-1\n"
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 || g.Weight(1, 2) != -1 {
		t.Fatalf("parsed wrong: n=%d m=%d", g.N(), g.M())
	}
}

func TestReadGraphErrors(t *testing.T) {
	cases := []string{
		"",                     // no header
		"0 1 2\n",              // edge before header
		"n -1\n",               // bad count
		"n 2147483648\n",       // count beyond graph.MaxVertices
		"n 3\n0 1\n",           // short edge
		"n 3\n0 3 1\n",         // out of range
		"n 3\n1 1 1\n",         // self loop
		"n 3\n0 1 abc\n",       // bad weight
		"n x\n",                // bad header
		"m 3\n",                // wrong header key
		"n 3\n0 1 1 extra\n",   // too many fields
		"n 3 extra\n0 1 1.0\n", // header with extra field
		"n 2\n0 1 NaN\n",       // non-finite weight
		"n 2\n0 1 +Inf\n",      // non-finite weight
	}
	for i, in := range cases {
		if _, err := ReadGraph(strings.NewReader(in)); err == nil {
			t.Errorf("case %d (%q): expected error", i, in)
		}
	}
}

func TestReadGraphLongCommentLine(t *testing.T) {
	// Real corpora carry multi-megabyte comment/header lines; the old fixed
	// 1 MiB scanner cap failed them with a bare "token too long".
	var sb strings.Builder
	sb.WriteString("# ")
	sb.WriteString(strings.Repeat("x", 2<<20))
	sb.WriteString("\nn 2\n0 1 3\n")
	g, err := ReadGraph(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("2 MiB comment line rejected: %v", err)
	}
	if g.Weight(0, 1) != 3 {
		t.Fatal("graph after long comment parsed wrong")
	}
}

// brokenReader fails with errBroken after yielding its content.
type brokenReader struct{ s *strings.Reader }

var errBroken = fmt.Errorf("transport broke")

func (r *brokenReader) Read(p []byte) (int, error) {
	if r.s.Len() > 0 {
		return r.s.Read(p)
	}
	return 0, errBroken
}

func TestScannerErrorsCarryLineContext(t *testing.T) {
	// A scanner-level failure (transport error, token too long) must name
	// the line it occurred on instead of surfacing bare.
	_, err := ReadGraph(&brokenReader{s: strings.NewReader("n 2\n0 1 1\n")})
	if err == nil {
		t.Fatal("expected the transport error through ReadGraph")
	}
	if !errors.Is(err, errBroken) {
		t.Fatalf("underlying error not wrapped: %v", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error lacks line context: %v", err)
	}

	if _, _, err := ReadSNAP(&brokenReader{s: strings.NewReader("1 2\n")}); err == nil || !strings.Contains(err.Error(), "line") {
		t.Fatalf("SNAP scanner error lacks line context: %v", err)
	}
	if _, err := ReadLabels(&brokenReader{s: strings.NewReader("a\nb\n")}); err == nil || !strings.Contains(err.Error(), "line") {
		t.Fatalf("labels scanner error lacks line context: %v", err)
	}
	mm := "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5\n"
	if _, err := ReadMatrixMarket(&brokenReader{s: strings.NewReader(mm)}); err == nil || !strings.Contains(err.Error(), "line") {
		t.Fatalf("MatrixMarket scanner error lacks line context: %v", err)
	}
}

func TestReadGraphFileErrorNamesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.tsv")
	if err := os.WriteFile(path, []byte("n 2\n0 5 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadGraphFile(path)
	if err == nil || !strings.Contains(err.Error(), "bad.tsv") {
		t.Fatalf("parse error lacks file context: %v", err)
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	labels := []string{"alpha", "beta gamma", "delta-3"}
	var buf bytes.Buffer
	if err := WriteLabels(&buf, labels); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLabels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(labels) {
		t.Fatalf("got %d labels, want %d", len(got), len(labels))
	}
	for i := range labels {
		if got[i] != labels[i] {
			t.Errorf("label %d = %q, want %q", i, got[i], labels[i])
		}
	}
	if err := WriteLabels(&buf, []string{"bad\nlabel"}); err == nil {
		t.Error("labels with newlines must be rejected")
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.tsv")
	b := graph.NewBuilder(4)
	b.AddEdge(0, 3, 7)
	g := b.Build()
	if err := WriteGraphFile(gpath, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraphFile(gpath)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Weight(0, 3) != 7 {
		t.Fatal("file round trip failed")
	}
	lpath := filepath.Join(dir, "labels.txt")
	if err := WriteLabelsFile(lpath, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	ls, err := ReadLabelsFile(lpath)
	if err != nil || len(ls) != 2 {
		t.Fatalf("labels file round trip: %v %v", ls, err)
	}
	if _, err := ReadGraphFile(filepath.Join(dir, "missing.tsv")); err == nil {
		t.Error("missing file must error")
	}
}

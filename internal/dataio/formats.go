package dataio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/dcslib/dcs/internal/graph"
)

// This file adds readers/writers for common public graph formats so the
// tools interoperate with existing datasets:
//
//   - SNAP-style edge lists: "u v [w]" lines, vertices remapped densely.
//   - MatrixMarket coordinate format (symmetric or general, real or
//     pattern).
//
// All readers drop self-loops silently (as is conventional for these
// corpora) while still interning their endpoints, so the vertex universe
// matches the file. Parallel edges merge by weight summation, except in
// general MatrixMarket matrices, which are symmetrized by averaging their
// duplicate (i,j)/(j,i) entries.

// ReadSNAP parses a SNAP-style edge list: one edge per line as "u v" or
// "u v w", with '#' comments. Vertex ids may be arbitrary non-negative
// integers; they are remapped to a dense [0, n) range in first-appearance
// order. Returns the graph and the original id of each vertex. Edges
// without a weight get weight 1. Self-loop lines contribute their vertex to
// the remap but no edge, so a vertex mentioned only by self-loops is still
// present (isolated) rather than silently missing from the id table.
func ReadSNAP(r io.Reader) (*graph.Graph, []int64, error) {
	sc := newScanner(r)
	type rawEdge struct {
		u, v int
		w    float64
	}
	var edges []rawEdge
	remap := make(map[int64]int)
	var orig []int64
	intern := func(id int64) int {
		if v, ok := remap[id]; ok {
			return v
		}
		v := len(orig)
		remap[id] = v
		orig = append(orig, id)
		return v
	}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, nil, fmt.Errorf("dataio: snap line %d: expected \"u v [w]\", got %q", line, text)
		}
		u, err1 := strconv.ParseInt(fields[0], 10, 64)
		v, err2 := strconv.ParseInt(fields[1], 10, 64)
		if err1 != nil || err2 != nil || u < 0 || v < 0 {
			return nil, nil, fmt.Errorf("dataio: snap line %d: bad vertex ids %q", line, text)
		}
		w := 1.0
		if len(fields) == 3 {
			var err error
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, nil, fmt.Errorf("dataio: snap line %d: bad weight %q", line, fields[2])
			}
		}
		// Intern BEFORE the self-loop drop: the line still names a vertex,
		// and skipping it first would make the returned n and orig table
		// disagree with the corpus for vertices that only appear as loops.
		iu, iv := intern(u), intern(v)
		if u == v {
			continue // drop self-loops
		}
		edges = append(edges, rawEdge{iu, iv, w})
	}
	if err := scanErr(sc.Err(), line); err != nil {
		return nil, nil, err
	}
	b := graph.NewBuilder(len(orig))
	for _, e := range edges {
		b.AddEdge(e.u, e.v, e.w)
	}
	return b.Build(), orig, nil
}

// WriteSNAP writes the graph as "u v w" lines with a comment header.
func WriteSNAP(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# undirected weighted graph: n=%d m=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	var werr error
	g.VisitEdges(func(u, v int, wt float64) {
		if werr != nil {
			return
		}
		_, werr = fmt.Fprintf(bw, "%d %d %g\n", u, v, wt)
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a MatrixMarket coordinate file describing a
// symmetric (or general) sparse matrix as a graph. Pattern matrices get
// weight 1. Entries are 1-indexed per the format. A general matrix is
// symmetrized by averaging, (A + Aᵀ)/2 restricted to the given entries: all
// entries for the same unordered pair — (i,j) and (j,i), or outright
// repeats — contribute the mean of their values, so a matrix stored with
// both triangles keeps its weights instead of having every one doubled.
// Symmetric (and skew-symmetric/Hermitian) files carry one triangle and are
// read as-is. Exactly nnz entries are consumed; the reader never scans past
// the last entry, so trailing content in a concatenated stream stays
// unread.
func ReadMatrixMarket(r io.Reader) (*graph.Graph, error) {
	sc := newScanner(r)
	line := 0
	if !sc.Scan() {
		if err := scanErr(sc.Err(), line); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("dataio: empty MatrixMarket input")
	}
	line++
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("dataio: unsupported MatrixMarket header %q", sc.Text())
	}
	pattern := header[3] == "pattern"
	// The symmetry field is the fifth token; a header that omits it
	// describes a general matrix.
	general := len(header) < 5 || header[4] == "general"
	// Skip comments to the size line.
	var n1, n2, nnz int
	sizeSeen := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		if _, err := fmt.Sscan(text, &n1, &n2, &nnz); err != nil {
			return nil, fmt.Errorf("dataio: line %d: bad MatrixMarket size line %q", line, text)
		}
		// Out-of-range sizes must be rejected here: a dimension outside
		// [0, graph.MaxVertices] would panic NewBuilder, and a negative nnz
		// would silently satisfy every "read < nnz" check and yield an
		// empty graph with no error.
		if n1 < 0 || n2 < 0 || nnz < 0 || n1 > graph.MaxVertices || n2 > graph.MaxVertices {
			return nil, fmt.Errorf("dataio: line %d: MatrixMarket size out of range %q", line, text)
		}
		sizeSeen = true
		break
	}
	if err := scanErr(sc.Err(), line); err != nil {
		return nil, err
	}
	if !sizeSeen {
		// Header but no size line (a truncated download): without this
		// check the zero values would sail through every later test and
		// yield an empty graph with no error.
		return nil, fmt.Errorf("dataio: MatrixMarket input ends before the size line")
	}
	if n1 != n2 {
		return nil, fmt.Errorf("dataio: adjacency matrix must be square, got %dx%d", n1, n2)
	}
	b := graph.NewBuilder(n1)
	// General matrices average their duplicates instead of letting the
	// builder sum them; sums and counts accumulate per unordered pair.
	type pair struct{ i, j int }
	var sum map[pair]float64
	var cnt map[pair]int
	if general {
		// Capacity hint capped: nnz is an untrusted header field, and a
		// 50-byte hostile file must not demand gigabytes of hash buckets
		// before a single entry is validated (same rationale as the binary
		// codec's size guards). The maps still grow to real data.
		sum = make(map[pair]float64, min(nnz, 1<<20))
		cnt = make(map[pair]int, min(nnz, 1<<20))
	}
	read := 0
	// read < nnz is checked BEFORE Scan: the loop must not consume the line
	// after the final entry.
	for read < nnz && sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		want := 3
		if pattern {
			want = 2
		}
		if len(fields) < want {
			return nil, fmt.Errorf("dataio: line %d: short MatrixMarket entry %q", line, text)
		}
		i, err1 := strconv.Atoi(fields[0])
		j, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || i < 1 || j < 1 || i > n1 || j > n1 {
			return nil, fmt.Errorf("dataio: line %d: bad MatrixMarket indices %q", line, text)
		}
		w := 1.0
		if !pattern {
			var err error
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("dataio: line %d: bad MatrixMarket value %q", line, fields[2])
			}
		}
		read++
		if i == j {
			continue // drop the diagonal
		}
		if general {
			p := pair{i, j}
			if p.i > p.j {
				p.i, p.j = p.j, p.i
			}
			sum[p] += w
			cnt[p]++
			continue
		}
		b.AddEdge(i-1, j-1, w)
	}
	if err := scanErr(sc.Err(), line); err != nil {
		return nil, err
	}
	if read < nnz {
		return nil, fmt.Errorf("dataio: MatrixMarket file ended after %d of %d entries", read, nnz)
	}
	for p, s := range sum {
		b.AddEdge(p.i-1, p.j-1, s/float64(cnt[p]))
	}
	return b.Build(), nil
}

// WriteMatrixMarket writes the graph as a symmetric real coordinate matrix.
func WriteMatrixMarket(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real symmetric\n%d %d %d\n",
		g.N(), g.N(), g.M()); err != nil {
		return err
	}
	var werr error
	g.VisitEdges(func(u, v int, wt float64) {
		if werr != nil {
			return
		}
		// Symmetric format stores the lower triangle: row ≥ column.
		_, werr = fmt.Fprintf(bw, "%d %d %g\n", v+1, u+1, wt)
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

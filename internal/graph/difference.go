package graph

import "fmt"

// Difference returns the difference graph GD = G2 − G1 over the shared vertex
// set: the graph whose affinity matrix is D = A2 − A1 (Section III-B of the
// paper). Edges whose difference is exactly zero are absent from GD.
func Difference(g1, g2 *Graph) *Graph {
	return DifferenceAlpha(g1, g2, 1)
}

// DifferenceAlpha returns the generalized difference graph GD = G2 − αG1
// (Section III-D): maximizing density on GD then finds S with
// ρ2(S) − αρ1(S) maximized. Both graphs must have the same vertex count.
//
// The merge walks the two sorted adjacency rows of each vertex in tandem,
// writing directly into one flat CSR array sized up front — so construction
// costs O(m1 + m2 + n) after the graphs are built (matching the complexity
// analysis in Section IV-B) and performs a constant number of allocations
// regardless of n.
func DifferenceAlpha(g1, g2 *Graph, alpha float64) *Graph {
	return mergeRows(g1, g2, func(w1, w2 float64, _, _ bool) float64 { return w2 - alpha*w1 })
}

// Blend returns the weighted sum a·g1 + b·g2 over the shared vertex set.
// DifferenceAlpha(g1, g2, α) equals Blend(g1, g2, −α, 1); exponential decay
// of an expectation graph is Blend(expect, observed, 1−λ, λ). Edges whose
// blended weight is exactly zero are dropped.
func Blend(g1, g2 *Graph, a, b float64) *Graph {
	return mergeRows(g1, g2, func(w1, w2 float64, _, _ bool) float64 { return a*w1 + b*w2 })
}

// Union is the merged topology of two graphs over one vertex set: each
// vertex row lists the union of its neighbors in both graphs, in ascending
// id order, with each side's weight (0 where the edge is absent). Built once
// in O(m1 + m2 + n), it lets a caller rebuild G2 − αG1 at many α without
// re-merging rows: the α-quasi-contrast search re-weights it at every probe.
// A Union is read-only after construction and safe for concurrent use.
type Union struct {
	n   int
	off []int
	ent []unionEntry
}

// unionEntry is one neighbor in the union of two graphs' rows: its id, its
// weight in each graph (0 where absent) and whether each graph holds the
// edge at all.
type unionEntry struct {
	to       int32
	in1, in2 bool
	w1, w2   float64
}

// mergeRow appends to dst the union of row u of a and row u of b, in
// ascending neighbor order — the one three-way sorted-row merge behind
// mergeRows, NewUnion and NewMaintainer. Only the arrays are read; masks
// are ignored (callers compact views first).
func mergeRow(a, b *Graph, u int, dst []unionEntry) []unionEntry {
	ai, aw := a.ids[a.off[u]:a.off[u+1]], a.ws[a.off[u]:a.off[u+1]]
	bi, bw := b.ids[b.off[u]:b.off[u+1]], b.ws[b.off[u]:b.off[u+1]]
	i, j := 0, 0
	for i < len(ai) && j < len(bi) {
		x, y := ai[i], bi[j]
		e := unionEntry{to: min(x, y), in1: x <= y, in2: y <= x}
		if e.in1 {
			e.w1 = aw[i]
			i++
		}
		if e.in2 {
			e.w2 = bw[j]
			j++
		}
		dst = append(dst, e)
	}
	// At most one row has entries left: copy its tail.
	for ; i < len(ai); i++ {
		dst = append(dst, unionEntry{to: ai[i], in1: true, w1: aw[i]})
	}
	for ; j < len(bi); j++ {
		dst = append(dst, unionEntry{to: bi[j], in2: true, w2: bw[j]})
	}
	return dst
}

// NewUnion merges the rows of g1 and g2, which must have the same vertex
// count. View inputs are compacted first, as in DifferenceAlpha.
func NewUnion(g1, g2 *Graph) *Union {
	if g1.N() != g2.N() {
		panic(fmt.Sprintf("graph: combining graphs with different vertex counts %d vs %d", g1.N(), g2.N()))
	}
	g1, g2 = g1.Compact(), g2.Compact()
	u := &Union{n: g1.n, off: make([]int, g1.n+1), ent: make([]unionEntry, 0, len(g1.ids)+len(g2.ids))}
	for v := 0; v < u.n; v++ {
		u.off[v] = len(u.ent)
		u.ent = mergeRow(g1, g2, v, u.ent)
	}
	u.off[u.n] = len(u.ent)
	return u
}

// DifferenceAlphaInto writes G2 − αG1 into dst's storage and returns dst.
// The result is bitwise the graph DifferenceAlpha(g1, g2, alpha) builds —
// the same w2 − α·w1 per entry, with absent sides read as 0 and exact zeros
// dropped — but dst's arrays are reused, grown only when too small. dst must
// be a fresh graph or one an earlier ...Into call produced; the result is
// valid until dst is next overwritten.
func (u *Union) DifferenceAlphaInto(alpha float64, dst *Graph) *Graph {
	off := grow(dst.off, u.n+1)
	ids, ws := grow(dst.ids, len(u.ent)), grow(dst.ws, len(u.ent))
	ws = ws[:len(ids)] // one bounds check covers both stores
	k, m := 0, 0
	var tw float64
	for v := 0; v < u.n; v++ {
		off[v] = k
		for _, e := range u.ent[u.off[v]:u.off[v+1]] {
			w := e.w2 - alpha*e.w1
			if w == 0 {
				continue
			}
			ids[k], ws[k] = e.to, w
			k++
			if int(e.to) > v {
				m++
				tw += w
			}
		}
	}
	off[u.n] = k
	dst.n, dst.m, dst.totalW, dst.off, dst.ids, dst.ws, dst.reused = u.n, m, tw, off, ids[:k], ws[:k], true
	return dst
}

// mergeRows is the linear-merge machinery behind Difference, Blend and
// ApplyDelta: it walks the sorted rows of a and b in tandem (mergeRow) and
// builds the plain CSR graph whose edge weights are f(w1, w2, in1, in2)
// over the union of the two edge sets. a and b must have the same vertex
// count; views are compacted first so the row merge is a plain array walk.
// Absent entries contribute weight 0 with their presence flag false — the
// flags let combiners like ApplyDelta treat "present with weight 0" (remove
// the edge) differently from "absent" (keep the other side's weight). Zero
// results are dropped. Each undirected edge must appear in both endpoint
// rows.
func mergeRows(a, b *Graph, f func(w1, w2 float64, in1, in2 bool) float64) *Graph {
	if a.N() != b.N() {
		panic(fmt.Sprintf("graph: combining graphs with different vertex counts %d vs %d", a.N(), b.N()))
	}
	a, b = a.Compact(), b.Compact()
	n := a.n
	off := make([]int, n+1)
	ids := make([]int32, len(a.ids)+len(b.ids))
	ws := make([]float64, len(ids))
	k, m := 0, 0
	var tw float64
	var row []unionEntry
	for u := 0; u < n; u++ {
		off[u] = k
		row = mergeRow(a, b, u, row[:0])
		for _, e := range row {
			w := f(e.w1, e.w2, e.in1, e.in2)
			if w == 0 {
				continue
			}
			ids[k], ws[k] = e.to, w
			k++
			if int(e.to) > u {
				m++
				tw += w
			}
		}
	}
	off[n] = k
	return &Graph{n: n, m: m, totalW: tw, off: off, ids: ids[:k], ws: ws[:k]}
}

// CapWeights returns a copy of the graph where every edge weight above cap is
// replaced by cap. The paper uses this in the Actor "Discrete" setting
// ("we set edge weights D(u,v) = 10 if D(u,v) originally was greater than
// 10") to keep a few very heavy edges from dominating the DCS.
func (g *Graph) CapWeights(cap float64) *Graph {
	return g.mapWeights(func(w float64) float64 {
		if w > cap {
			return cap
		}
		return w
	})
}

// DiscretizeLevels maps raw difference weights onto the paper's Discrete
// setting for the DBLP co-author graphs (Section VI-B):
//
//	w ≥ hi              → +2
//	lo ≤ w < hi         → +1
//	0 < w < lo          → dropped (a weak positive signal)
//	−(hi−1) < w < 0     → −1
//	w ≤ −(hi−1)         → −2
//
// The negative cut is hi−1, not lo. With the paper's hi=5, lo=2: w ≥ 5 → 2,
// 2 ≤ w < 5 → 1, 0 < w < 2 dropped, −4 < w < 0 → −1, w ≤ −4 → −2.
func (g *Graph) DiscretizeLevels(lo, hi float64) *Graph {
	return g.mapWeights(func(w float64) float64 {
		switch {
		case w >= hi:
			return 2
		case w >= lo:
			return 1
		case w > 0:
			return 0 // weak positive signal: dropped
		case w > -(hi - 1):
			return -1
		default:
			return -2
		}
	})
}

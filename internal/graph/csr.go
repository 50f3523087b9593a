package graph

import "fmt"

// This file is the storage boundary of a Graph: CSR hands its arrays to
// kernels that walk rows directly and to the binary codec, and FromCSR
// adopts arrays built elsewhere — decoded from a file, or aliases of a
// read-only memory-mapped .dcsg v2 file (internal/dataio.OpenMapped), which
// is how dcsd serves snapshot sets larger than RAM: the kernel pages
// adjacency in and out on demand and the process heap holds only the O(n)
// offsets. The arrays have the same layout wherever they live, so every
// Graph method reads them the same way.

// CSR exposes g's storage for read-only kernels that walk rows directly
// instead of calling VisitNeighbors per vertex: row u is ids[off[u]:off[u+1]]
// with weights ws[off[u]:off[u+1]], sorted by neighbor id, over the base
// storage. An entry (to, w) of row u is visible iff drop is nil or neither
// drop[u] nor drop[to] is set — the vertex mask of a view, returned as it
// is. On a plain graph (Compact) the arrays are the visible graph, each
// undirected edge once per direction: dumping them verbatim round-trips the
// graph byte-exactly, which is what the binary codec (internal/dataio) does. The slices are g's own storage, possibly a
// read-only mapping, and must not be modified.
func (g *Graph) CSR() (off []int, ids []int32, ws []float64, drop []bool) {
	return g.off, g.ids, g.ws, g.drop
}

// FromCSR builds a Graph over CSR arrays, the import counterpart of CSR:
// off (len n+1) indexes the directed entry arrays ids and ws. The arrays are
// adopted, not copied — the caller must not modify them afterwards — and may
// alias a read-only memory mapping. release, if non-nil, is invoked by
// Release when the storage should be torn down (e.g. munmap); after Release
// the graph and every view derived from it must not be used.
//
// Every structural invariant a Builder would establish is verified: offsets
// form a monotone cover of the entries, rows are strictly increasing (sorted,
// no parallel entries), entries are self-loop-free with finite non-zero
// weights, and every directed entry has a bitwise-equal mirror in the
// opposite row. The edge count and total weight are recomputed in the same
// pass, so corrupt or hostile bytes produce an error, never a Graph
// violating the package contracts.
func FromCSR(n int, off []int, ids []int32, ws []float64, release func()) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > MaxVertices {
		return nil, fmt.Errorf("graph: vertex count %d exceeds limit %d", n, MaxVertices)
	}
	if len(off) != n+1 {
		return nil, fmt.Errorf("graph: offsets length %d, want n+1 = %d", len(off), n+1)
	}
	if len(ids) != len(ws) {
		return nil, fmt.Errorf("graph: %d neighbor ids but %d weights", len(ids), len(ws))
	}
	if n > 0 && off[0] != 0 {
		return nil, fmt.Errorf("graph: offsets must start at 0, got %d", off[0])
	}
	if len(off) > 0 && off[n] != len(ids) {
		return nil, fmt.Errorf("graph: offsets end at %d, want len(entries) = %d", off[n], len(ids))
	}
	m := 0
	var tw float64
	// Mirror verification runs as one O(n+m) merge instead of a binary
	// search per edge: cur[v].next walks row v's lower-partner entries
	// (ids < v, sorted ascending), which must be consumed in order by the
	// upper edges (u, v) as u ascends — both sequences are strictly
	// increasing, so the greedy match is exact. An unconsumed lower entry
	// (a mirror with no counterpart) either mismatches a later consumption
	// or survives to the final 2m == len(ids) count, which then fails.
	// This pass dominates the mmap cold-open cost, so it stays sequential
	// and branch-light, with the cursor and row end packed into one cache
	// line per probed vertex.
	// The monotone check runs in the cursor-init scan, before any off[u] is
	// used as a slice index: with off[0] == 0 and off[n] == len(ids) already
	// verified, monotonicity bounds every row inside the entry arrays, so
	// hostile offsets (which may alias an untrusted mapping verbatim) error
	// here instead of faulting the loops below.
	type rowCursor struct{ next, end int }
	var cur []rowCursor
	if n > 0 {
		cur = make([]rowCursor, n)
		for v := range cur {
			if off[v+1] < off[v] {
				return nil, fmt.Errorf("graph: offsets decrease at vertex %d", v)
			}
			cur[v] = rowCursor{next: off[v], end: off[v+1]}
		}
	}
	// A sorted row splits into its lower-partner prefix (ids < u) and
	// upper-partner suffix (ids > u), so each row runs as two tight loops
	// instead of one with a per-entry to>u branch — that branch is ~50/50
	// and its mispredictions, not the checks themselves, dominated the
	// single-loop version.
	for u := 0; u < n; u++ {
		i, re := off[u], off[u+1]
		prev := -1
		// Lower prefix: -1 < to < u (so the bounds check is implied) and
		// strictly increasing; the mirror pairing is consumed by the upper
		// loop of the partner rows via cur.
		for ; i < re; i++ {
			to, w := int(ids[i]), ws[i]
			if to >= u {
				break
			}
			if to <= prev {
				return nil, fmt.Errorf("graph: row %d not strictly increasing at neighbor %d", u, to)
			}
			prev = to
			// w-w is 0 for every finite non-zero weight and NaN for
			// NaN/±Inf — one subtraction in place of IsNaN+IsInf calls.
			if w == 0 || w-w != 0 {
				return nil, fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, to, w)
			}
		}
		if i < re && int(ids[i]) == u {
			return nil, fmt.Errorf("graph: self-loop on vertex %d", u)
		}
		// Upper suffix: every entry counts an undirected edge from its
		// lower endpoint and must find its bitwise-equal mirror next in
		// the higher row's consumption order.
		for ; i < re; i++ {
			to, w := int(ids[i]), ws[i]
			if uint(to) >= uint(n) {
				return nil, fmt.Errorf("graph: vertex %d has neighbor %d out of range [0,%d)", u, to, n)
			}
			if to <= prev {
				return nil, fmt.Errorf("graph: row %d not strictly increasing at neighbor %d", u, to)
			}
			prev = to
			if w == 0 || w-w != 0 {
				return nil, fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, to, w)
			}
			c := cur[to]
			if c.next >= c.end || int(ids[c.next]) != u || ws[c.next] != w {
				return nil, fmt.Errorf("graph: edge (%d,%d) has no matching mirror entry", u, to)
			}
			cur[to].next = c.next + 1
			m++
			tw += w
		}
	}
	if 2*m != len(ids) {
		return nil, fmt.Errorf("graph: %d directed entries for %d undirected edges", len(ids), m)
	}
	return &Graph{n: n, m: m, totalW: tw, off: off, ids: ids, ws: ws, release: release}, nil
}

// Release invokes the release hook the storage was adopted with (FromCSR;
// typically an munmap), at most once. After Release neither g nor any view
// or subslice derived from it may be used — the backing memory is gone. It
// is a no-op on graphs without a hook and on views (only the root graph
// that owns the hook releases).
func (g *Graph) Release() {
	if r := g.release; r != nil {
		g.release = nil
		r()
	}
}

// StorageBytes estimates the bytes of CSR storage reachable from g: offsets
// plus the id and weight arrays, plus the memoized positive part when one
// has been computed. Views report their base storage; the figure is the
// byte-accounting input of the dcsd memory budget, not an exact heap
// measurement.
func (g *Graph) StorageBytes() int64 {
	b := int64(len(g.off))*8 + int64(len(g.ids))*4 + int64(len(g.ws))*8
	if g.drop != nil {
		b += int64(len(g.drop))
	}
	if p := g.pos.Load(); p != nil {
		b += p.StorageBytes()
	}
	return b
}

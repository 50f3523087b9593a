// Package vheap implements an indexed 4-ary min-heap keyed by vertex id.
//
// It is the priority structure behind greedy densest-subgraph peeling: every
// vertex carries a float64 priority (its current weighted degree), the
// algorithm repeatedly pops the minimum, and neighbors' priorities are
// adjusted with Update/Add as vertices leave the subgraph. Ties break by
// ascending vertex id, so the pop order is the strict (priority, id) order.
// All operations are O(log n); building from a priority slice is O(n).
//
// Each heap slot stores its priority and vertex inline, so a comparison
// reads one slot rather than chasing a vertex id into a side array, and
// sifts move a hole instead of swapping. Reset refills a heap in place, so
// a solver that peels many graphs in a row reuses one set of arrays.
package vheap

// arity is the heap's branching factor. Four children per slot halve the
// depth a decrease-key climbs — the peel's dominant operation — at the cost
// of more comparisons per level on the way down.
const arity = 4

// entry is one heap slot: a vertex and its current priority.
type entry struct {
	prio float64
	v    int32
}

// less is the heap order: priority, then vertex id.
func less(a, b entry) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.v < b.v // deterministic tie-break by vertex id
}

// Heap is an indexed min-heap over vertices 0..n−1 (n < 2³¹). A vertex is
// either in the heap or removed; priorities of removed vertices are no
// longer tracked. The zero value is an empty heap ready for Reset.
type Heap struct {
	slots []entry // heap order
	pos   []int32 // pos[v] = slot of v, or -1 if removed
}

// Reset refills h with all vertices 0..len(prio)−1 at the given priorities,
// in O(n), reusing h's storage when it is large enough.
func (h *Heap) Reset(prio []float64) {
	n := len(prio)
	if cap(h.slots) < n {
		h.slots = make([]entry, n)
		h.pos = make([]int32, n)
	}
	h.slots, h.pos = h.slots[:n], h.pos[:n]
	for v, p := range prio {
		h.slots[v] = entry{prio: p, v: int32(v)}
		h.pos[v] = int32(v)
	}
	if n < 2 {
		return
	}
	for i := (n - 2) / arity; i >= 0; i-- { // from the last parent up
		h.siftDown(i)
	}
}

// Len returns the number of vertices still in the heap.
func (h *Heap) Len() int { return len(h.slots) }

// Contains reports whether v is still in the heap.
func (h *Heap) Contains(v int) bool { return h.pos[v] >= 0 }

// PopMin removes and returns the vertex with minimum priority. The heap must
// be non-empty.
func (h *Heap) PopMin() (v int, prio float64) {
	e := h.slots[0]
	h.pos[e.v] = -1
	last := len(h.slots) - 1
	if last > 0 {
		// The last entry fills the root and sinks to its place.
		h.slots[0] = h.slots[last]
		h.slots = h.slots[:last]
		h.siftDown(0)
	} else {
		h.slots = h.slots[:0]
	}
	return int(e.v), e.prio
}

// Update sets v's priority to p, restoring heap order in O(log n). v must
// still be in the heap.
func (h *Heap) Update(v int, p float64) {
	i := int(h.pos[v])
	old := h.slots[i].prio
	h.slots[i].prio = p
	if p < old {
		h.siftUp(i)
	} else if p > old {
		h.siftDown(i)
	}
}

// Add increments v's priority by delta. v must still be in the heap.
func (h *Heap) Add(v int, delta float64) {
	h.Update(v, h.slots[h.pos[v]].prio+delta)
}

// siftUp moves the entry at slot i toward the root, shifting each larger
// parent down into the hole it leaves.
func (h *Heap) siftUp(i int) {
	e := h.slots[i]
	for i > 0 {
		p := (i - 1) / arity
		if !less(e, h.slots[p]) {
			break
		}
		h.slots[i] = h.slots[p]
		h.pos[h.slots[i].v] = int32(i)
		i = p
	}
	h.slots[i] = e
	h.pos[e.v] = int32(i)
}

// siftDown moves the entry at slot i toward the leaves, lifting the smallest
// child into the hole at each level.
func (h *Heap) siftDown(i int) {
	e := h.slots[i]
	n := len(h.slots)
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		m, me := c, h.slots[c]
		for k := c + 1; k < min(c+arity, n); k++ {
			if less(h.slots[k], me) {
				m, me = k, h.slots[k]
			}
		}
		if !less(me, e) {
			break
		}
		h.slots[i] = me
		h.pos[me.v] = int32(i)
		i = m
	}
	h.slots[i] = e
	h.pos[e.v] = int32(i)
}

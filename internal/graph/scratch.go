package graph

import "sync"

// Scratch buffers replace the map[int]bool membership sets that used to be
// allocated inside TotalDegreeOf, Induced and ConnectedComponents — all of
// which sit in the per-iteration hot loops of top-k mining and
// CollectCliques. Buffers come from sync.Pools, are sized to the largest n
// seen, and the acquiring method clears exactly the indices it set before
// returning the buffer, so a pooled buffer is always all-zero. Pool access is
// concurrency-safe; graphs stay usable from many goroutines at once.

type markBuf struct{ b []bool }

var markPool = sync.Pool{New: func() any { return new(markBuf) }}

// acquireMark returns an all-false []bool of length ≥ n wrapped for release.
func acquireMark(n int) *markBuf {
	mb := markPool.Get().(*markBuf)
	if cap(mb.b) < n {
		mb.b = make([]bool, n)
	} else {
		mb.b = mb.b[:n]
	}
	return mb
}

// release clears the indices listed in set and returns the buffer to the
// pool. Every index the caller marked must appear in set.
func (mb *markBuf) release(set []int) {
	for _, v := range set {
		mb.b[v] = false
	}
	markPool.Put(mb)
}

type idBuf struct{ b []int }

var idPool = sync.Pool{New: func() any { return new(idBuf) }}

// acquireID returns an all-zero []int of length ≥ n; callers store id+1 so
// that 0 keeps meaning "absent".
func acquireID(n int) *idBuf {
	ib := idPool.Get().(*idBuf)
	if cap(ib.b) < n {
		ib.b = make([]int, n)
	} else {
		ib.b = ib.b[:n]
	}
	return ib
}

// stackPool holds search stacks (length 0, capacity kept) for IsConnected.
var stackPool = sync.Pool{New: func() any { return new(idBuf) }}

// release clears the indices listed in set and returns the buffer to the
// pool.
func (ib *idBuf) release(set []int) {
	for _, v := range set {
		ib.b[v] = 0
	}
	idPool.Put(ib)
}

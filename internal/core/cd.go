package core

import (
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
	"github.com/dcslib/dcs/internal/simplex"
)

// cdState is the mutable state of the 2-coordinate-descent shrink stage: the
// embedding x restricted to a working set S, with (Dx)_u maintained
// incrementally for every u ∈ S so that one iteration costs O(|S|) for the
// coordinate pick plus O(deg(i)+deg(j)) for the update — the costs quoted in
// Section V-B.
type cdState struct {
	g   *graph.Graph
	off []int // g's CSR rows (g is plain)
	ids []int32
	ws  []float64
	x   *simplex.Vector
	S   []int
	in  map[int]bool
	dx  map[int]float64 // (Dx)_u for u ∈ S
}

// newCDState flattens a view g first (Compact is a no-op on a plain graph),
// so the loops read its CSR rows directly. An interrupted build leaves later
// dx entries unset; the descend loop polls the same State first and unwinds
// before reading them.
func newCDState(g *graph.Graph, x *simplex.Vector, S []int, rs *runstate.State) *cdState {
	g = g.Compact()
	off, ids, ws, _, _ := g.CSR()
	st := &cdState{
		g:   g,
		off: off,
		ids: ids,
		ws:  ws,
		x:   x,
		S:   append([]int(nil), S...),
		in:  make(map[int]bool, len(S)),
		dx:  make(map[int]float64, len(S)),
	}
	for _, u := range S {
		st.in[u] = true
	}
	for _, u := range S {
		if rs.Checkpoint() {
			break
		}
		var s float64
		for i := off[u]; i < off[u+1]; i++ {
			s += ws[i] * x.Get(int(ids[i]))
		}
		st.dx[u] = s
	}
	return st
}

// shiftMass sets x_u ← x_u + delta and propagates the change into every
// (Dx)_v for v ∈ N(u) ∩ S.
func (st *cdState) shiftMass(u int, delta float64) {
	if delta == 0 {
		return
	}
	st.x.Set(u, st.x.Get(u)+delta)
	for i := st.off[u]; i < st.off[u+1]; i++ {
		if v := int(st.ids[i]); st.in[v] {
			st.dx[v] += st.ws[i] * delta
		}
	}
}

// pick returns the coordinate pair of one 2-CD iteration:
// i = argmax_{k∈S: xk<1} ∇k and j = argmin_{k∈S: xk>0} ∇k, plus the gradient
// gap ∇i − ∇j = 2((Dx)_i − (Dx)_j). Ties break on the smaller vertex id for
// determinism. ok is false when no valid pair exists (e.g. all mass on one
// vertex and nothing else in S).
func (st *cdState) pick() (i, j int, gap float64, ok bool) {
	i, j = -1, -1
	var di, dj float64
	for _, k := range st.S {
		d := st.dx[k]
		if st.x.Get(k) < 1 && (i == -1 || d > di) {
			i, di = k, d
		}
		if st.x.Get(k) > 0 && (j == -1 || d < dj) {
			j, dj = k, d
		}
	}
	if i == -1 || j == -1 || i == j {
		return 0, 0, 0, false
	}
	return i, j, 2 * (di - dj), true
}

// step performs the analytic update of Eq. 9 on coordinates (i, j): with
// C = xi + xj fixed, maximize
//
//	g(z) = bi·z + bj·(C−z) + D(i,j)·z·(C−z)
//
// over z ∈ [0, C] where bi = (Dx)_i − D(i,j)·xj and bj = (Dx)_j − D(i,j)·xi
// collect the influence of the n−2 frozen coordinates. Returns whether x
// actually moved.
func (st *cdState) step(i, j int) bool {
	xi, xj := st.x.Get(i), st.x.Get(j)
	C := xi + xj
	dij := st.g.Weight(i, j)
	bi := st.dx[i] - dij*xj
	bj := st.dx[j] - dij*xi
	gv := func(z float64) float64 {
		return bi*z + bj*(C-z) + dij*z*(C-z)
	}
	best := xi
	bestVal := gv(xi)
	try := func(z float64) {
		if v := gv(z); v > bestVal {
			best, bestVal = z, v
		}
	}
	if dij == 0 {
		// Linear: optimum at an endpoint (case 1 of Section V-B).
		try(0)
		try(C)
	} else {
		// Quadratic with curvature −D(i,j) (case 2). The interior critical
		// point r = B/(2·D(i,j)) with B = D(i,j)·C + bi − bj is a maximum only
		// when D(i,j) > 0; endpoints always compete.
		try(0)
		try(C)
		if r := (dij*C + bi - bj) / (2 * dij); dij > 0 && r > 0 && r < C {
			try(r)
		}
	}
	if best == xi {
		return false
	}
	st.shiftMass(i, best-xi)
	st.shiftMass(j, (C-best)-xj)
	return true
}

// descend runs 2-coordinate descent until the local KKT conditions on S hold
// at precision eps (Eq. 11: max ∇ − min ∇ ≤ eps), maxIter iterations have
// been spent, or rs reports cancellation (x then stays at the last completed
// step — still on the simplex, just short of a KKT point). It returns the
// number of iterations performed. The objective xᵀDx never decreases across
// the call.
func (st *cdState) descend(eps float64, maxIter int, rs *runstate.State) int {
	iters := 0
	for iters < maxIter {
		if rs.Checkpoint() {
			break
		}
		i, j, gap, ok := st.pick()
		if !ok || gap <= eps {
			break
		}
		iters++
		if !st.step(i, j) {
			// Numerically stuck: the analytic optimum coincides with the
			// current point even though the gradient gap is above eps.
			break
		}
	}
	return iters
}

// coordinateDescent is the package-level entry: run 2-CD over the working set
// S on graph g, mutating x in place. Returns iterations used.
func coordinateDescent(g *graph.Graph, x *simplex.Vector, S []int, eps float64, maxIter int, rs *runstate.State) int {
	if len(S) <= 1 {
		return 0
	}
	st := newCDState(g, x, S, rs)
	return st.descend(eps, maxIter, rs)
}

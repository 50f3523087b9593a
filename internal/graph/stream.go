package graph

import (
	"fmt"
	"math"
	"sort"
)

// renormScale is the lazy-decay threshold: once the scalar multiplier has
// decayed below it, the Maintainer folds the scale into the stored weights and
// resets it to 1. At λ = 0.3 that is one O(m) renormalization every ~39 ticks;
// between renormalizations every tick is O(k) for a k-edge delta. The
// threshold also bounds 1/scale (the factor applied to incoming delta
// weights) by 1e6, so hostile huge weights cannot overflow through the
// division.
const renormScale = 1e-6

// pruneRel is the residual floor applied at renormalization: a slot whose
// folded residual magnitude falls below pruneRel times the graph's dominant
// weight magnitude is snapped to exactly zero. Without it a churned edge's
// residual decays geometrically but never reaches zero, so the difference
// graph's support — and with it the incremental engine's warm regions —
// grows toward the full observation graph instead of tracking the recently
// changed edges. Snapping moves each pruned weight by at most
// pruneRel·max|w|, so any set's density shifts by at most deg·pruneRel·max|w|
// — far inside the 1e-9-relative tolerance the streaming equivalence suite
// (and the serve layer's delta-vs-snapshot comparisons) already grant the
// rescaled accumulator arithmetic.
const pruneRel = 1e-12

// streamEntry is one slot of a Maintainer's union adjacency rows. Obs is the
// current observation weight of the edge; H is the *scaled* residual, whose
// true value is scale·H (see Maintainer). A slot with Obs == 0 and H == 0 is
// a tombstone, skipped at materialization and dropped at renormalization.
type streamEntry struct {
	To  int
	Obs float64
	H   float64
}

// Maintainer keeps the three graphs of a streaming EWMA anomaly watch —
// observation, expectation, and the difference graph G_D mined each tick —
// alive across ticks under edge deltas, so a tick with a k-edge delta costs
// O(k·deg) weight updates instead of an O(m) rebuild.
//
// The EWMA recurrence expect_t = (1−λ)·expect_{t−1} + λ·obs_t implies, for
// the residual P_t ≡ obs_t − expect_t and the per-tick difference graph
// G_D^t = obs_t − expect_{t−1}:
//
//	G_D^t = Δ_t + P_{t−1}        (the delta shifts the old residual)
//	P_t   = (1−λ)·G_D^t          (the fold is a uniform scalar decay)
//
// so the whole-graph decay never needs to touch individual weights: the
// Maintainer stores the residual as scale·H and folds a tick by multiplying
// scale by (1−λ) in O(1) ("lazy scalar multiplier"), applying only the
// delta's own edges as sparse corrections H += δ/scale. When scale decays
// below renormScale the multiplier is folded into H in one O(m) pass
// (amortized over the ~log(1/renormScale)/λ ticks it took to get there).
//
// Protocol per tick: BeginTick(delta) applies the delta, after which
// DiffGraph/DiffInduced expose G_D^t for mining; EndTick() folds the EWMA
// decay. Between the two calls Expectation() still materializes expect_{t−1}
// (obs_t − scale·H ≡ obs_t − G_D^t), which is exactly what a checkpoint
// taken mid-solve must see — callers can snapshot state while a solve is in
// flight.
//
// The zero value is not usable; construct with NewMaintainer. Methods are not
// safe for concurrent mutation (the owning tracker serializes ticks), but the
// materialized graphs returned are immutable snapshots.
type Maintainer struct {
	n      int
	lambda float64
	scale  float64
	rows   [][]streamEntry
	inTick bool
	// pending maps the in-flight tick's canonical touched pairs to their
	// pre-tick observation weights — the O(k) pre-image that lets
	// Observation() stay tick-atomic while a solve is in flight. Nil
	// outside a tick.
	pending map[[2]int]float64

	// Materialization caches, invalidated on BeginTick/EndTick. The
	// returned graphs are shared — callers must not mutate them (Graph is
	// immutable by convention).
	obsCache    *Graph
	expectCache *Graph
	diffCache   *Graph
}

// NewMaintainer seeds a Maintainer from an (expectation, observation) pair —
// the state a fresh or restored tracker holds — with scale = 1 and
// H = obs − expect. Both graphs must share the vertex count; lambda must be
// in (0, 1].
func NewMaintainer(expect, obs *Graph, lambda float64) *Maintainer {
	if expect.N() != obs.N() {
		panic(fmt.Sprintf("graph: maintainer seed vertex counts differ: %d vs %d", expect.N(), obs.N()))
	}
	if !(lambda > 0 && lambda <= 1) {
		panic(fmt.Sprintf("graph: maintainer lambda %v outside (0, 1]", lambda))
	}
	expect, obs = expect.Compact(), obs.Compact()
	n := expect.n
	m := &Maintainer{n: n, lambda: lambda, scale: 1, rows: make([][]streamEntry, n)}
	var union []unionEntry
	for u := 0; u < n; u++ {
		union = mergeRow(expect, obs, u, union[:0])
		if len(union) == 0 {
			continue
		}
		row := make([]streamEntry, len(union))
		for i, e := range union {
			row[i] = streamEntry{To: int(e.to), Obs: e.w2, H: e.w2 - e.w1}
		}
		m.rows[u] = row
	}
	return m
}

// N returns the vertex count.
func (m *Maintainer) N() int { return m.n }

// Scale exposes the current lazy multiplier, for tests and diagnostics.
func (m *Maintainer) Scale() float64 { return m.scale }

// slot returns a pointer to the (u, to) entry of row u, inserting a zero slot
// at its sorted position if absent. O(log deg) search + O(deg) insert.
func (m *Maintainer) slot(u, to int) *streamEntry {
	row := m.rows[u]
	i := sort.Search(len(row), func(k int) bool { return row[k].To >= to })
	if i < len(row) && row[i].To == to {
		return &row[i]
	}
	row = append(row, streamEntry{})
	copy(row[i+1:], row[i:])
	row[i] = streamEntry{To: to}
	m.rows[u] = row
	return &m.rows[u][i]
}

// BeginTick applies an edge delta (ApplyDelta semantics: each entry sets the
// undirected edge's observation weight, 0 removes, last duplicate wins) and
// shifts the residual so that scale·H = G_D for this tick. It returns the
// sorted distinct vertices the delta touched — the seed of the warm-start
// region. After BeginTick the Diff* accessors expose the tick's difference
// graph; the caller mines it, then calls EndTick to fold the EWMA decay.
// Ticks do not nest: calling BeginTick twice without EndTick panics.
func (m *Maintainer) BeginTick(delta []Edge) (touched []int) {
	if m.inTick {
		panic("graph: Maintainer.BeginTick without EndTick")
	}
	m.inTick = true
	m.obsCache, m.expectCache, m.diffCache = nil, nil, nil
	ded := canonDelta(m.n, delta)
	m.pending = make(map[[2]int]float64, len(ded))
	touched = make([]int, 0, 2*len(ded))
	for _, e := range ded {
		su := m.slot(e.U, e.V)
		m.pending[[2]int{e.U, e.V}] = su.Obs
		d := e.W - su.Obs
		su.Obs = e.W
		su.H += d / m.scale
		// Mirror into the reverse direction; both slots carry identical
		// values so every materialization walk sees a symmetric graph.
		sv := m.slot(e.V, e.U)
		sv.Obs = su.Obs
		sv.H = su.H
		touched = append(touched, e.U, e.V)
	}
	sort.Ints(touched)
	uniq := touched[:0]
	for _, v := range touched {
		if len(uniq) == 0 || uniq[len(uniq)-1] != v {
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// EndTick folds the tick's EWMA decay — scale multiplies by (1−λ) in O(1) —
// and renormalizes when the multiplier has decayed below renormScale. After
// EndTick, Expectation() materializes the post-fold expectation.
func (m *Maintainer) EndTick() {
	if !m.inTick {
		panic("graph: Maintainer.EndTick without BeginTick")
	}
	m.inTick = false
	m.pending = nil
	m.expectCache, m.diffCache = nil, nil
	m.scale *= 1 - m.lambda
	if m.scale < renormScale {
		m.renorm()
	}
}

// renorm folds the lazy multiplier into the stored residuals (H *= scale,
// scale = 1), snaps residuals below the pruneRel floor to zero, and drops
// tombstone slots — bounding the multiplier range, the slack left by removed
// edges, and the difference graph's support (see pruneRel). At λ = 1 scale
// reaches exactly 0 and this zeroes every residual — the expectation tracks
// the observation outright, which is the λ = 1 semantics.
func (m *Maintainer) renorm() {
	var maxMag float64
	for _, row := range m.rows {
		for _, s := range row {
			if a := math.Abs(s.Obs); a > maxMag {
				maxMag = a
			}
			if a := math.Abs(m.scale * s.H); a > maxMag {
				maxMag = a
			}
		}
	}
	eps := pruneRel * maxMag
	for u, row := range m.rows {
		live := row[:0]
		for _, s := range row {
			s.H *= m.scale
			if math.Abs(s.H) < eps {
				s.H = 0
			}
			if s.Obs == 0 && s.H == 0 {
				continue
			}
			live = append(live, s)
		}
		if len(live) == 0 {
			m.rows[u] = nil
			continue
		}
		m.rows[u] = live
	}
	m.scale = 1
}

// materialize builds the plain CSR graph whose (u, v) weight is f(u, entry),
// with zero results dropped — the shared walk behind the three graph
// accessors.
func (m *Maintainer) materialize(f func(u int, s streamEntry) float64) *Graph {
	size := 0
	for _, row := range m.rows {
		size += len(row)
	}
	off := make([]int, m.n+1)
	ids, ws := make([]int32, size), make([]float64, size)
	k, edges := 0, 0
	var tw float64
	for u, row := range m.rows {
		off[u] = k
		for _, s := range row {
			w := f(u, s)
			if w == 0 {
				continue
			}
			ids[k], ws[k] = int32(s.To), w
			k++
			if s.To > u {
				edges++
				tw += w
			}
		}
	}
	off[m.n] = k
	return &Graph{n: m.n, m: edges, totalW: tw, off: off, ids: ids[:k], ws: ws[:k]}
}

// Observation materializes the pre-tick observation graph: between BeginTick
// and EndTick the in-flight delta is rolled back through its O(k) pre-image,
// so a checkpoint taken while a solve is in flight sees the tick-atomic
// (expectation, observation) pair of the last completed tick. At rest it is
// the current observation, cached until the next tick.
func (m *Maintainer) Observation() *Graph {
	if m.pending != nil {
		return m.materialize(func(u int, s streamEntry) float64 {
			if w, ok := m.pending[[2]int{u, s.To}]; ok && u < s.To {
				return w
			}
			if w, ok := m.pending[[2]int{s.To, u}]; ok && s.To < u {
				return w
			}
			return s.Obs
		})
	}
	if m.obsCache == nil {
		m.obsCache = m.materialize(func(_ int, s streamEntry) float64 { return s.Obs })
	}
	return m.obsCache
}

// Expectation materializes the expectation graph: obs − scale·H. Between
// BeginTick and EndTick this is the *pre-fold* expectation expect_{t−1}
// (scale·H equals G_D^t there), so a checkpoint taken while a solve is in
// flight observes exactly the state a restart would need.
func (m *Maintainer) Expectation() *Graph {
	if m.expectCache == nil {
		scale := m.scale
		m.expectCache = m.materialize(func(_ int, s streamEntry) float64 { return s.Obs - scale*s.H })
	}
	return m.expectCache
}

// DiffGraph materializes the full difference graph scale·H. Between BeginTick
// and EndTick this is the tick's G_D = obs_t − expect_{t−1}, the graph the
// scratch path would have built with graph.Difference; scratch re-solves mine
// it directly.
func (m *Maintainer) DiffGraph() *Graph {
	if m.diffCache == nil {
		scale := m.scale
		m.diffCache = m.materialize(func(_ int, s streamEntry) float64 { return scale * s.H })
	}
	return m.diffCache
}

// DiffInduced returns the subgraph of the difference graph induced by S as a
// standalone Graph over [0, len(S)) plus the local→original mapping, without
// materializing the full G_D — the incremental path mines these small region
// graphs every tick, so the CSR is assembled directly: S must be sorted
// ascending (the warm region is), which makes the local ids order-preserving,
// and each maintained row is already sorted by neighbor id, so the induced
// rows come out sorted with no Builder sort pass. Mirrors Graph.Induced.
func (m *Maintainer) DiffInduced(S []int) (*Graph, []int) {
	orig := make([]int, len(S))
	copy(orig, S)
	local := acquireID(m.n)
	for i, v := range S {
		local.b[v] = i + 1 // 0 means "not in S"
	}
	scale := m.scale
	n := len(S)
	off := make([]int, n+1)
	ids, ws := make([]int32, 0, 4*n), make([]float64, 0, 4*n)
	edges := 0
	var tw float64
	for i, v := range S {
		off[i] = len(ids)
		for _, s := range m.rows[v] {
			if j := local.b[s.To]; j != 0 {
				if w := scale * s.H; w != 0 {
					ids, ws = append(ids, int32(j-1)), append(ws, w)
					if s.To > v {
						edges++
						tw += w
					}
				}
			}
		}
	}
	off[n] = len(ids)
	local.release(S)
	return &Graph{n: n, m: edges, totalW: tw, off: off, ids: ids, ws: ws}, orig
}

// VisitDiffNeighbors calls f for every neighbor of u in the difference graph
// with its true (unscaled) weight, in neighbor-id order. Zero-weight slots
// are skipped.
func (m *Maintainer) VisitDiffNeighbors(u int, f func(v int, w float64)) {
	scale := m.scale
	for _, s := range m.rows[u] {
		if w := scale * s.H; w != 0 {
			f(s.To, w)
		}
	}
}

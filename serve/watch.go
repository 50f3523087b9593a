package serve

import (
	"context"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/evolve"
)

// maxWatchReports caps any report ring: a watch cannot be registered with an
// unbounded (or absurd) retention demand.
const maxWatchReports = 4096

// defaultWatchReports is the report-ring capacity of a watch registered
// without one.
const defaultWatchReports = 32

// maxSolveTimeoutMS caps a watch's per-observation solve budget (~31 years).
// Beyond roughly 9.2e12 ms the float64→time.Duration conversion would
// overflow int64 and silently disable the timeout.
const maxSolveTimeoutMS = 1e12

// watch is one registered streaming anomaly watch: an evolve.Tracker plus a
// bounded ring of recent reports. Two locks split hot from slow: obsMu
// serializes observations — ticks must enter the tracker in stream order, so
// it is held across the whole (possibly long) mining solve — while mu guards
// only the cheap read state (step, ring, counters), so GET /v1/watches and
// GET .../reports answer instantly even while an observe is mining. The
// tracker itself is internally locked the same way: its read-side accessors
// (Expectation, CheckpointState, Stats) never wait behind an in-flight solve.
// Different watches observe concurrently, each on its own pool slot.
type watch struct {
	name         string
	n            int
	lambda       float64
	measure      string
	minDensity   float64
	solveTimeout time.Duration
	ringCap      int
	resync       int // effective scratch re-solve interval (defaults applied)
	created      time.Time

	// obsMu serializes observes. Nothing that might hold it reaches for
	// mu's state except through the short-held mu section at the end of an
	// observe (obsMu → mu, never the reverse).
	obsMu   sync.Mutex
	tracker *evolve.Tracker // guarded by obsMu; see checkpointState for the sanctioned exception

	// mu guards the observation results; held only for O(ring) copies. The
	// step count is mirrored here so the ring and its step advance under
	// one lock.
	mu        sync.Mutex
	step      int           // guarded by mu
	reports   []WatchReport // guarded by mu; circular once full; oldest at head
	head      int           // guarded by mu; index of the oldest report when the ring is full
	anomalies int           // guarded by mu
	lastSeen  time.Time     // guarded by mu
}

// checkpointState captures everything a checkpoint persists, without ever
// taking obsMu — a checkpoint must not block behind a long solve. The
// expectation, delta base and step come from the tracker's tick-atomic
// CheckpointState (mid-solve it reports the last completed tick); the ring is
// copied under mu. The two are read back to back, so a tick committing in
// between can leave the ring one report behind the step — harmless, the next
// checkpoint catches it up. The returned manifest carries no file names; the
// persister fills those in.
func (w *watch) checkpointState() (watchManifest, *dcs.Graph, *dcs.Graph) {
	//lint:allow guardedby -- sanctioned lock-free read: CheckpointState is tick-atomic by the tracker's own internal lock, and a checkpoint must not wait behind a long solve holding obsMu (see doc comment)
	expect, last, step := w.tracker.CheckpointState()
	w.mu.Lock()
	defer w.mu.Unlock()
	man := watchManifest{
		Name:           w.name,
		N:              w.n,
		Lambda:         w.lambda,
		Measure:        w.measure,
		MinDensity:     w.minDensity,
		SolveTimeoutMS: float64(w.solveTimeout) / float64(time.Millisecond),
		ReportCap:      w.ringCap,
		ResyncEvery:    w.resync,
		CreatedAt:      w.created,
		Step:           step,
		Anomalies:      w.anomalies,
	}
	if !w.lastSeen.IsZero() {
		t := w.lastSeen
		man.LastSeen = &t
	}
	// Unroll the ring oldest-first, the same order GET .../reports serves,
	// dropping reports newer than the tracker step being persisted.
	man.Reports = make([]WatchReport, 0, len(w.reports))
	man.Reports = append(man.Reports, w.reports[w.head:]...)
	man.Reports = append(man.Reports, w.reports[:w.head]...)
	for len(man.Reports) > 0 && man.Reports[len(man.Reports)-1].Step > step {
		man.Reports = man.Reports[:len(man.Reports)-1]
	}
	return man, expect, last
}

func (w *watch) info() WatchInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	info := WatchInfo{
		Name:           w.name,
		N:              w.n,
		Lambda:         w.lambda,
		Measure:        w.measure,
		MinDensity:     w.minDensity,
		SolveTimeoutMS: float64(w.solveTimeout) / float64(time.Millisecond),
		ReportCap:      w.ringCap,
		ResyncEvery:    w.resync,
		Step:           w.step,
		Anomalies:      w.anomalies,
		CreatedAt:      w.created,
	}
	if !w.lastSeen.IsZero() {
		t := w.lastSeen
		info.LastObserved = &t
	}
	return info
}

// watchRegistry tracks the registered watches. The cumulative counters keep
// counting deleted watches, mirroring jobRegistry.
type watchRegistry struct {
	mu           sync.Mutex
	watches      map[string]*watch // guarded by mu
	observations int               // guarded by mu
	anomalies    int               // guarded by mu
	// scratch/incremental split observations by solve path; warmHits counts
	// incremental ticks won by the improved previous subgraph.
	scratch     int // guarded by mu
	incremental int // guarded by mu
	warmHits    int // guarded by mu
}

func newWatchRegistry() *watchRegistry {
	return &watchRegistry{watches: make(map[string]*watch)}
}

// admissible reports (under the lock the caller holds) why a registration of
// name would be refused: registration disabled, duplicate name, or registry
// full.
func (reg *watchRegistry) admissible(name string, maxWatches int) *httpError {
	if maxWatches < 0 {
		return &httpError{status: http.StatusServiceUnavailable,
			msg: "watch registration is disabled on this server"}
	}
	if _, ok := reg.watches[name]; ok {
		return &httpError{status: http.StatusConflict,
			msg: "watch " + name + " already exists (delete it first to reconfigure)"}
	}
	if len(reg.watches) >= maxWatches {
		return &httpError{status: http.StatusServiceUnavailable,
			msg: "watch limit reached; delete a watch first"}
	}
	return nil
}

// precheck cheaply rejects a registration that add would refuse, so the
// caller does not build the tracker's O(n) state for a request the registry
// will bounce. add re-checks authoritatively at insert time.
func (reg *watchRegistry) precheck(name string, maxWatches int) *httpError {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.admissible(name, maxWatches)
}

// add registers a fresh watch. It fails when the name is taken (conflict) or
// the registry is full (maxWatches > 0; negative disables registration).
func (reg *watchRegistry) add(w *watch, maxWatches int) *httpError {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if herr := reg.admissible(w.name, maxWatches); herr != nil {
		return herr
	}
	reg.watches[w.name] = w
	return nil
}

// restore inserts a recovered watch at boot, bypassing the max-watches
// admission (the state predates this process). A duplicate name is refused.
func (reg *watchRegistry) restore(w *watch) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, ok := reg.watches[w.name]; ok {
		return false
	}
	reg.watches[w.name] = w
	return true
}

func (reg *watchRegistry) get(name string) (*watch, bool) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	w, ok := reg.watches[name]
	return w, ok
}

// removeIf deletes the name only while w is still its current entry,
// reporting whether it removed anything — the identity-checked variant for
// rollback paths, where a plain by-name remove could take out a watch that
// concurrently replaced w.
func (reg *watchRegistry) removeIf(name string, w *watch) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if cur, ok := reg.watches[name]; ok && cur == w {
		delete(reg.watches, name)
		return true
	}
	return false
}

// remove deletes the named watch, reporting whether it existed. An observe
// in flight on the removed watch completes against its own reference; the
// watch's graphs are freed once that returns.
func (reg *watchRegistry) remove(name string) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	_, ok := reg.watches[name]
	delete(reg.watches, name)
	return ok
}

// recordObservation bumps the cumulative counters.
func (reg *watchRegistry) recordObservation(rep *WatchReport) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.observations++
	if rep.Anomalous {
		reg.anomalies++
	}
	if rep.Mode == evolve.ModeIncremental {
		reg.incremental++
		if rep.WarmHit {
			reg.warmHits++
		}
	} else {
		reg.scratch++
	}
}

func (reg *watchRegistry) list() []WatchInfo {
	reg.mu.Lock()
	ws := make([]*watch, 0, len(reg.watches))
	for _, w := range reg.watches {
		ws = append(ws, w)
	}
	reg.mu.Unlock()
	sort.Slice(ws, func(i, j int) bool { return ws[i].name < ws[j].name })
	infos := make([]WatchInfo, 0, len(ws))
	for _, w := range ws {
		infos = append(infos, w.info())
	}
	return infos
}

func (reg *watchRegistry) stats() WatchStats {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	st := WatchStats{
		Count:            len(reg.watches),
		Observations:     reg.observations,
		Anomalies:        reg.anomalies,
		ScratchTicks:     reg.scratch,
		IncrementalTicks: reg.incremental,
		WarmHits:         reg.warmHits,
	}
	if st.IncrementalTicks > 0 {
		st.WarmHitRate = float64(st.WarmHits) / float64(st.IncrementalTicks)
	}
	return st
}

// DeltaBetween expresses cur as a set-semantics edge delta against prev,
// ready for POST /v1/watches/{name}/observe: changed or new edges carry
// their new weight, vanished edges carry 0 (the removal marker). Duplicate
// entries within either graph sum first (Builder semantics), so feeding the
// returned delta is equivalent to feeding cur as a full snapshot — up to
// floating-point tolerance: the server feeds deltas to the tracker's
// incremental engine (evolve.Tracker.ObserveDeltaCtx), which maintains the
// difference graph with a lazily-scaled accumulator instead of rebuilding it.
// This is the client-side encoder watch clients (cmd/dcswatch, the tests)
// share.
func DeltaBetween(prev, cur GraphJSON) []EdgeJSON {
	type pair struct{ u, v int }
	index := func(g GraphJSON) map[pair]float64 {
		m := make(map[pair]float64, len(g.Edges))
		for _, e := range g.Edges {
			u, v := e.U, e.V
			if u > v {
				u, v = v, u
			}
			m[pair{u, v}] += e.W
		}
		return m
	}
	pw, cw := index(prev), index(cur)
	delta := make([]EdgeJSON, 0)
	for p, w := range cw {
		if old, ok := pw[p]; !ok || old != w {
			delta = append(delta, EdgeJSON{U: p.u, V: p.v, W: w})
		}
	}
	for p := range pw {
		if _, ok := cw[p]; !ok {
			delta = append(delta, EdgeJSON{U: p.u, V: p.v, W: 0})
		}
	}
	return delta
}

// checkWatchConfig applies registration's limits to a watch configuration
// whose defaults are resolved (measure, report ring size). registerWatch
// checks every request with it and restore every checkpointed manifest, so
// a restored watch never holds a configuration registration would refuse.
// The vertex-count cap Config.MaxVertices is registration's alone: the
// operator may change it between boots.
func checkWatchConfig(name string, n int, measure string, solveTimeoutMS float64, reports, resyncEvery int) *httpError {
	if name == "" {
		return badRequest("watch name is required")
	}
	if strings.Contains(name, "/") {
		return badRequest("watch name must not contain '/'")
	}
	if herr := checkKeyLen("watch", name, maxWatchKey); herr != nil {
		return herr
	}
	if n < 1 {
		return badRequest("vertex count must be positive, got %d", n)
	}
	if measure != "avgdeg" && measure != "affinity" {
		return badRequest("unknown watch measure %q: want avgdeg | affinity", measure)
	}
	if solveTimeoutMS < 0 || solveTimeoutMS > maxSolveTimeoutMS || math.IsNaN(solveTimeoutMS) {
		return badRequest("solve_timeout_ms must be in [0, %g]", float64(maxSolveTimeoutMS))
	}
	if reports < 1 || reports > maxWatchReports {
		return badRequest("reports must be in [1, %d]", maxWatchReports)
	}
	if resyncEvery < 0 {
		return badRequest("resync_every must be ≥ 0 (0 for the default), got %d", resyncEvery)
	}
	return nil
}

// registerWatch validates one WatchRequest and builds the watch.
func (s *Server) registerWatch(req *WatchRequest) (*watch, *httpError) {
	measure := req.Measure
	if measure == "" {
		measure = "avgdeg"
	}
	ringCap := req.Reports
	if ringCap == 0 {
		ringCap = defaultWatchReports
	}
	if herr := checkWatchConfig(req.Name, req.N, measure, req.SolveTimeoutMS, ringCap, req.ResyncEvery); herr != nil {
		return nil, herr
	}
	if req.N > s.cfg.MaxVertices {
		return nil, badRequest("vertex count %d exceeds the server limit %d", req.N, s.cfg.MaxVertices)
	}
	resync := req.ResyncEvery
	if resync == 0 {
		resync = s.cfg.WatchResync
	}
	// Cheap registry check before allocating the tracker's O(n) state; add
	// below re-checks under the same lock against concurrent registrations.
	if herr := s.watches.precheck(req.Name, s.cfg.MaxWatches); herr != nil {
		return nil, herr
	}
	tracker, err := evolve.New(req.N, evolve.Config{
		Lambda:      req.Lambda,
		MinDensity:  req.MinDensity,
		GA:          measure == "affinity",
		ResyncEvery: resync,
	})
	if err != nil {
		return nil, badRequest("%s", err)
	}
	w := &watch{
		name:         req.Name,
		n:            req.N,
		lambda:       req.Lambda,
		measure:      measure,
		minDensity:   req.MinDensity,
		solveTimeout: time.Duration(req.SolveTimeoutMS * float64(time.Millisecond)),
		ringCap:      ringCap,
		resync:       resync,
		created:      time.Now(),
		tracker:      tracker,
	}
	if w.lambda == 0 {
		w.lambda = 0.3 // echo the applied defaults in infos
	}
	if w.resync == 0 {
		w.resync = evolve.DefaultResyncEvery
	}
	if herr := s.watches.add(w, s.cfg.MaxWatches); herr != nil {
		return nil, herr
	}
	// Write-through: a registered watch must survive a restart even if it is
	// never observed before the process dies. A failed write rolls the
	// registration back — a 200 here promises durability.
	if s.persist != nil {
		if err := s.persist.checkpointWatch(w); err != nil {
			// Identity-checked rollback: if a concurrent delete+re-register
			// already replaced w under this name, both the registry entry
			// and the files on disk belong to the new owner.
			if s.watches.removeIf(w.name, w) {
				s.persist.deleteWatch(w.name)
			}
			return nil, &httpError{status: http.StatusInternalServerError,
				msg: "failed to persist watch " + w.name + ": " + err.Error()}
		}
	}
	return w, nil
}

// observationGraph turns one observe body into the observed graph. Full
// snapshots build outside the watch lock; deltas only validate here — the
// merge against the previous observation must run under the lock, so the
// validated edge list is returned instead.
func (s *Server) observationGraph(w *watch, req *WatchObserveRequest) (*dcs.Graph, []dcs.Edge, *httpError) {
	switch {
	case req.Graph != nil && req.Delta != nil:
		return nil, nil, badRequest("give a full graph or a delta, not both")
	case req.Graph != nil:
		if req.Graph.N != w.n {
			return nil, nil, badRequest("snapshot has %d vertices, watch %q has %d", req.Graph.N, w.name, w.n)
		}
		g, err := req.Graph.Build()
		if err != nil {
			return nil, nil, badRequest("bad graph: %s", err)
		}
		return g, nil, nil
	case req.Delta != nil:
		edges := make([]dcs.Edge, 0, len(req.Delta))
		for i, e := range req.Delta {
			if e.U < 0 || e.U >= w.n || e.V < 0 || e.V >= w.n {
				return nil, nil, badRequest("delta %d: (%d,%d) out of range [0,%d)", i, e.U, e.V, w.n)
			}
			if e.U == e.V {
				return nil, nil, badRequest("delta %d: self-loop on vertex %d", i, e.U)
			}
			if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
				return nil, nil, badRequest("delta %d: non-finite weight", i)
			}
			edges = append(edges, dcs.Edge{U: e.U, V: e.V, W: e.W})
		}
		return nil, edges, nil
	default:
		return nil, nil, badRequest("missing observation: give a full graph or a delta (an empty delta list means no change)")
	}
}

// watchSolveCtx derives the context one observation mines under: the
// request's own context bounded by the watch's solve timeout and the
// server's, whichever is smaller.
func (s *Server) watchSolveCtx(r *http.Request, w *watch) (context.Context, context.CancelFunc) {
	eff := s.cfg.SolveTimeout
	if w.solveTimeout > 0 && (eff == 0 || w.solveTimeout < eff) {
		eff = w.solveTimeout
	}
	if eff > 0 {
		return context.WithTimeout(r.Context(), eff)
	}
	return r.Context(), func() {}
}

// handleWatches serves POST /v1/watches (register) and GET /v1/watches
// (list).
func (s *Server) handleWatches(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.watches.list())
	case http.MethodPost:
		var req WatchRequest
		if err := s.decodeBody(w, r, &req); err != nil {
			writeHTTPError(w, err)
			return
		}
		wt, herr := s.registerWatch(&req)
		if herr != nil {
			writeHTTPError(w, herr)
			return
		}
		writeJSON(w, http.StatusOK, wt.info())
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// handleWatchByPath routes /v1/watches/{name}[/observe | /reports].
func (s *Server) handleWatchByPath(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/watches/")
	name, sub, _ := strings.Cut(rest, "/")
	if name == "" {
		writeError(w, http.StatusNotFound, "unknown path %q", r.URL.Path)
		return
	}
	switch sub {
	case "":
		s.handleWatchByName(w, r, name)
	case "observe":
		s.handleWatchObserve(w, r, name)
	case "reports":
		s.handleWatchReports(w, r, name)
	default:
		writeError(w, http.StatusNotFound, "unknown path %q", r.URL.Path)
	}
}

func (s *Server) handleWatchByName(w http.ResponseWriter, r *http.Request, name string) {
	switch r.Method {
	case http.MethodGet:
		wt, ok := s.watches.get(name)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown watch %q", name)
			return
		}
		writeJSON(w, http.StatusOK, wt.info())
	case http.MethodDelete:
		if !s.watches.remove(name) {
			writeError(w, http.StatusNotFound, "unknown watch %q", name)
			return
		}
		// After the registry remove: a concurrent checkpoint flush either
		// already failed its registration check or serializes behind this
		// deletion on the persister lock — either way the files stay gone.
		if s.persist != nil {
			s.persist.deleteWatch(name)
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}

func (s *Server) handleWatchObserve(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	wt, ok := s.watches.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown watch %q", name)
		return
	}
	var req WatchObserveRequest
	if err := s.decodeEdgeBody(w, r, &req); err != nil {
		writeHTTPError(w, err)
		return
	}
	observed, delta, herr := s.observationGraph(wt, &req)
	if herr != nil {
		writeHTTPError(w, herr)
		return
	}
	// Serialize on the watch BEFORE taking a pool slot: ticks queued behind
	// the previous tick's solve wait slot-free, so one slow stream cannot
	// pin every pool slot and starve the other endpoints. The lock order is
	// strictly obsMu → pool; pool-slot holders never wait on an obsMu, so
	// there is no cycle.
	wt.obsMu.Lock()
	defer wt.obsMu.Unlock()
	release, err := s.admit(r)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	defer release()
	// The solve budget starts only now, with the slot and the lock both
	// held: queueing time must not eat into this observation's mining
	// compute (same rule as the job runner's post-acquire timeout).
	ctx, cancel := s.watchSolveCtx(r, wt)
	defer cancel()
	started := time.Now()
	var rep evolve.Report
	if observed == nil {
		// Delta tick: the tracker applies it to its own observation base
		// and runs the incremental engine (warm-started region solve, with
		// scratch resyncs per the watch's resync_every).
		rep, err = wt.tracker.ObserveDeltaCtx(ctx, delta)
	} else {
		// Full snapshot: always a from-scratch solve, and resets the
		// incremental engine's state.
		rep, err = wt.tracker.ObserveCtx(ctx, observed)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%s", err)
		return
	}
	report := WatchReport{
		Step:        rep.Step,
		Anomalous:   rep.Anomalous(),
		S:           rep.S,
		Contrast:    rep.Contrast,
		Affinity:    rep.Affinity,
		Interrupted: rep.Interrupted,
		Mode:        rep.Mode,
		WarmHit:     rep.WarmHit,
		ObservedAt:  time.Now(),
		ElapsedMS:   float64(time.Since(started)) / float64(time.Millisecond),
	}

	wt.mu.Lock()
	wt.step = rep.Step
	wt.lastSeen = report.ObservedAt
	if report.Anomalous {
		wt.anomalies++
	}
	// Bounded ring, O(1) per tick: once full, the newest report overwrites
	// the oldest slot and the head advances.
	if len(wt.reports) < wt.ringCap {
		wt.reports = append(wt.reports, report)
	} else {
		wt.reports[wt.head] = report
		wt.head = (wt.head + 1) % wt.ringCap
	}
	wt.mu.Unlock()

	s.watches.recordObservation(&report)
	if s.persist != nil {
		s.persist.markDirty(wt)
	}
	writeJSON(w, http.StatusOK, report)
}

func (s *Server) handleWatchReports(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	wt, ok := s.watches.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown watch %q", name)
		return
	}
	wt.mu.Lock()
	// Unroll the circular ring oldest-first (head is 0 until it fills).
	reports := make([]WatchReport, 0, len(wt.reports))
	reports = append(reports, wt.reports[wt.head:]...)
	reports = append(reports, wt.reports[:wt.head]...)
	resp := WatchReportsResponse{
		Name:    wt.name,
		Step:    wt.step,
		Reports: reports,
	}
	wt.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// Package serve implements dcsd, a long-running HTTP service for online
// density-contrast mining: named, versioned graph snapshots are kept in a
// concurrent in-memory registry, and mining requests — any of the four
// contrast measures of the paper and its baselines — run on a bounded worker
// pool so a burst of expensive queries cannot exhaust the host.
//
// Endpoints (all request/response bodies are JSON):
//
//	POST /v1/snapshots   upload or replace a named weighted graph
//	GET  /v1/snapshots   list the registered snapshots
//	DELETE /v1/snapshots/{name}  remove a snapshot and purge its cached
//	                     difference graphs (404 on an unknown name)
//	POST /v1/dcs         mine one contrast: measure avgdeg | affinity |
//	                     totalweight | ratio, against two named snapshots or
//	                     inline edge lists, optional top-k and alpha
//	GET  /v1/topics      the TopContrastCliquesOnCtx pipeline over two named
//	                     snapshots (the paper's emerging/disappearing topics)
//	POST /v1/jobs        submit a /v1/dcs request as an asynchronous job;
//	                     returns a job id immediately
//	GET  /v1/jobs        list jobs; GET /v1/jobs/{id} polls one job's status
//	                     (queued | running | done | cancelled | failed) and
//	                     its result once finished
//	DELETE /v1/jobs/{id} cancel a queued or running job; a running solver
//	                     stops within one checkpoint interval and its
//	                     best-so-far partial result is kept
//	POST /v1/watches     register a named streaming anomaly watch: an EWMA
//	                     expectation tracker (package evolve) served over
//	                     HTTP; GET lists, DELETE /v1/watches/{name} removes
//	POST /v1/watches/{name}/observe  feed one stream tick — a full snapshot
//	                     or an edge-delta list against the previous
//	                     observation — mine the DCS of the observation vs
//	                     the maintained expectation, fold it in, and return
//	                     (plus retain) the anomaly report; delta ticks run
//	                     the incremental engine (the difference graph is
//	                     maintained in O(k) per k-edge delta and mining
//	                     warm-starts from the previous subgraph, re-solving
//	                     from scratch every resync_every ticks)
//	GET  /v1/watches/{name}/reports  the watch's bounded ring of recent
//	                     reports, oldest first
//	GET  /healthz        liveness, snapshot count, in-flight and queued
//	                     counts, job and watch statistics
//
// Mining runs under the request's context plus the configured SolveTimeout:
// a client disconnect or an expired deadline interrupts the solver at its
// next cancellation checkpoint, frees the pool slot, and (for deadlines) the
// response carries the best-so-far partial result with "interrupted": true.
//
// A Server built with Open (dcsd -data) is durable: snapshots and their
// monotonic version counters mirror write-through to a data directory and
// watch state is checkpointed, so a restart recovers everything instead of
// booting empty — see serve/persist.go and the PersistStats counters on
// /healthz.
//
// The service exposes exactly the public API of package dcs; see README.md
// for curl examples and cmd/dcsd for the binary.
package serve

import (
	"fmt"
	"math"
	"time"

	dcs "github.com/dcslib/dcs"
)

// EdgeJSON is one undirected weighted edge of a request or response graph.
type EdgeJSON struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w"`
}

// GraphJSON is an inline graph: a vertex count and an edge list. Parallel
// edges merge by summing, as in dcs.Builder.
type GraphJSON struct {
	N     int        `json:"n"`
	Edges []EdgeJSON `json:"edges"`
}

// Build validates the edge list and constructs the immutable graph.
func (g *GraphJSON) Build() (*dcs.Graph, error) {
	if g.N < 0 {
		return nil, fmt.Errorf("negative vertex count %d", g.N)
	}
	b := dcs.NewBuilder(g.N)
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= g.N || e.V < 0 || e.V >= g.N {
			return nil, fmt.Errorf("edge %d: (%d,%d) out of range [0,%d)", i, e.U, e.V, g.N)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("edge %d: self-loop on vertex %d", i, e.U)
		}
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return nil, fmt.Errorf("edge %d: non-finite weight", i)
		}
		b.AddEdge(e.U, e.V, e.W)
	}
	return b.Build(), nil
}

// SnapshotRequest is the body of POST /v1/snapshots.
type SnapshotRequest struct {
	Name string `json:"name"`
	GraphJSON
}

// SnapshotInfo describes one registered snapshot; POST /v1/snapshots returns
// the info of the stored (possibly replaced) snapshot, GET /v1/snapshots
// returns a list sorted by name.
type SnapshotInfo struct {
	Name        string    `json:"name"`
	Version     int       `json:"version"`
	N           int       `json:"n"`
	M           int       `json:"m"`
	TotalWeight float64   `json:"total_weight"`
	UpdatedAt   time.Time `json:"updated_at"`
}

// DCSRequest is the body of POST /v1/dcs. The two input graphs are given
// either by snapshot name (G1, G2) or inline (Graph1, Graph2); the two styles
// may be mixed. Contrast direction follows the library convention: the result
// is denser in the second graph than in the first.
type DCSRequest struct {
	// Measure selects the objective: "avgdeg" (ρ2−ρ1, DCSGreedy),
	// "affinity" (xᵀA2x − xᵀA1x, NewSEA), "totalweight" (W2−W1, the EgoScan
	// baseline objective) or "ratio" (largest α with ρ2 ≥ α·ρ1).
	Measure string `json:"measure"`
	// G1, G2 name registered snapshots.
	G1 string `json:"g1,omitempty"`
	G2 string `json:"g2,omitempty"`
	// Graph1, Graph2 are inline alternatives to G1/G2.
	Graph1 *GraphJSON `json:"graph1,omitempty"`
	Graph2 *GraphJSON `json:"graph2,omitempty"`
	// K asks for up to K vertex-disjoint results (avgdeg and affinity only).
	// 0 or 1 means the single best.
	K int `json:"k,omitempty"`
	// Alpha generalizes the difference graph to GD = G2 − α·G1 (the
	// α-quasi-contrast of Section III-D). Absent means 1; an explicit 0 is
	// honored and mines the pure G2 difference graph (GD = G2). Ignored by
	// measure "ratio", which searches for the best α itself.
	Alpha *float64 `json:"alpha,omitempty"`
	// Parallelism asks for this many worker goroutines inside the solve.
	// Absent or 0 means the server default (Config.Parallelism); requests
	// beyond the server cap (Config.MaxParallelism) are clamped, never
	// rejected — the response echoes the degree actually used. Results are
	// identical at every degree; negative values are a 400.
	Parallelism int `json:"parallelism,omitempty"`
}

// SubgraphJSON is one mined contrast subgraph.
type SubgraphJSON struct {
	// S is the vertex set, increasing order.
	S []int `json:"s"`
	// Density is ρ_D(S), the average-degree difference.
	Density float64 `json:"density"`
	// TotalWeight is W_D(S), the total edge-weight difference.
	TotalWeight float64 `json:"total_weight"`
	// EdgeDensity is W_D(S)/|S|².
	EdgeDensity float64 `json:"edge_density"`
	// Affinity is xᵀDx (affinity measure only).
	Affinity float64 `json:"affinity,omitempty"`
	// Weights are the simplex weights aligned with S (affinity measure only).
	Weights []float64 `json:"weights,omitempty"`
	// ApproxRatio is DCSGreedy's data-dependent ratio β (avgdeg only).
	ApproxRatio    float64 `json:"approx_ratio,omitempty"`
	PositiveClique bool    `json:"positive_clique"`
	Connected      bool    `json:"connected"`
}

// RatioJSON is the outcome of measure "ratio". When some edge exists only in
// G2, or has a negative G1 weight, the supremum is unbounded (Section
// III-C); Unbounded is then true and Alpha is omitted, with S the heaviest
// G2-only edge, or else the first G1-negative edge.
type RatioJSON struct {
	Alpha     float64 `json:"alpha"`
	Unbounded bool    `json:"unbounded,omitempty"`
	S         []int   `json:"s"`
	Density1  float64 `json:"density1"`
	Density2  float64 `json:"density2"`
}

// SnapshotRef records which snapshot version a response was computed
// against, so callers can detect mid-flight replacement.
type SnapshotRef struct {
	Name    string `json:"name,omitempty"`
	Version int    `json:"version,omitempty"`
	Inline  bool   `json:"inline,omitempty"`
}

// DCSResponse is the body returned by POST /v1/dcs.
type DCSResponse struct {
	Measure string      `json:"measure"`
	G1      SnapshotRef `json:"g1"`
	G2      SnapshotRef `json:"g2"`
	Alpha   float64     `json:"alpha,omitempty"`
	// Interrupted reports that the solve was cut short — the SolveTimeout
	// expired or the job was cancelled mid-run — and the fields below carry
	// the solver's best-so-far partial result instead of the full answer.
	Interrupted bool           `json:"interrupted,omitempty"`
	Results     []SubgraphJSON `json:"results,omitempty"`
	Ratio       *RatioJSON     `json:"ratio,omitempty"`
	// Parallelism is the worker-goroutine degree the solve actually used:
	// the requested (or server-default) degree clamped to the server cap,
	// never below 1. A request above the cap is thus answered, not errored —
	// this field is how the client learns it was clamped.
	Parallelism int     `json:"parallelism"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// TopicsResponse is the body returned by GET /v1/topics.
type TopicsResponse struct {
	G1        SnapshotRef `json:"g1"`
	G2        SnapshotRef `json:"g2"`
	Direction string      `json:"direction"`
	// Interrupted reports a partial topic list (SolveTimeout expired).
	Interrupted bool           `json:"interrupted,omitempty"`
	Topics      []SubgraphJSON `json:"topics"`
	ElapsedMS   float64        `json:"elapsed_ms"`
}

// JobInfo describes one asynchronous mining job. POST /v1/jobs returns the
// fresh job (status "queued"); GET /v1/jobs/{id} returns the current state,
// including the result once the job is done or cancelled mid-run.
type JobInfo struct {
	ID string `json:"id"`
	// Status is queued | running | done | cancelled | failed.
	Status     string     `json:"status"`
	Measure    string     `json:"measure"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Error explains a failed job.
	Error string `json:"error,omitempty"`
	// Result is present once the job finished; a job cancelled mid-run keeps
	// its best-so-far partial result with Result.Interrupted set.
	Result *DCSResponse `json:"result,omitempty"`
}

// JobStats summarizes the job registry for /healthz.
type JobStats struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Cancelled int `json:"cancelled"`
	Failed    int `json:"failed"`
	// Retained counts the finished jobs currently kept for polling (bounded
	// by Config.JobRetention; Done/Cancelled/Failed keep counting evicted
	// ones).
	Retained int `json:"retained"`
}

// WatchRequest is the body of POST /v1/watches: it registers a named
// streaming anomaly watch (an EWMA tracker served over HTTP).
type WatchRequest struct {
	Name string `json:"name"`
	// N is the fixed vertex count every observation must match.
	N int `json:"n"`
	// Lambda is the EWMA decay in (0, 1]; 0 means the default 0.3.
	Lambda float64 `json:"lambda,omitempty"`
	// Measure selects the mining objective per observation: "avgdeg"
	// (default) or "affinity" (small positive-clique anomalies).
	Measure string `json:"measure,omitempty"`
	// MinDensity suppresses reports whose contrast is at or below it.
	MinDensity float64 `json:"min_density,omitempty"`
	// SolveTimeoutMS bounds one observation's mining compute; an expired
	// solve reports its best-so-far partial subgraph with "interrupted".
	// 0 falls back to the server's -timeout. When both are set the smaller
	// wins.
	SolveTimeoutMS float64 `json:"solve_timeout_ms,omitempty"`
	// Reports sets the watch's report-ring capacity, in [1, 4096]; 0 means
	// the default of 32.
	Reports int `json:"reports,omitempty"`
	// ResyncEvery overrides the scratch re-solve interval for delta
	// observations: every K-th delta tick mines the full difference graph
	// from scratch instead of running the incremental warm-started solve.
	// 0 means the server default (Config.WatchResync, else the evolve
	// package default of 32); 1 disables incremental mining outright.
	ResyncEvery int `json:"resync_every,omitempty"`
}

// WatchInfo describes one registered watch.
type WatchInfo struct {
	Name           string  `json:"name"`
	N              int     `json:"n"`
	Lambda         float64 `json:"lambda"`
	Measure        string  `json:"measure"`
	MinDensity     float64 `json:"min_density"`
	SolveTimeoutMS float64 `json:"solve_timeout_ms,omitempty"`
	ReportCap      int     `json:"report_cap"`
	// ResyncEvery is the watch's effective scratch re-solve interval for
	// delta observations (defaults applied).
	ResyncEvery int       `json:"resync_every"`
	Step        int       `json:"step"`
	Anomalies   int       `json:"anomalies"`
	CreatedAt   time.Time `json:"created_at"`
	// LastObserved is the wall time of the newest observation, if any.
	LastObserved *time.Time `json:"last_observed,omitempty"`
}

// WatchObserveRequest is the body of POST /v1/watches/{name}/observe: one
// stream tick, either a full snapshot or an edge-delta list against the
// previous observation (each delta entry sets edge (u,v) to w; w = 0 removes
// it; the first observation's delta base is the empty graph).
type WatchObserveRequest struct {
	Graph *GraphJSON `json:"graph,omitempty"`
	Delta []EdgeJSON `json:"delta,omitempty"`
}

// WatchReport is one observation's anomaly finding, returned by the observe
// call and retained in the watch's bounded report ring.
type WatchReport struct {
	Step      int  `json:"step"`
	Anomalous bool `json:"anomalous"`
	// S is the anomalous vertex set (empty when nothing exceeded the
	// watch's min density).
	S []int `json:"s,omitempty"`
	// Contrast is the density difference observed − expected.
	Contrast float64 `json:"contrast,omitempty"`
	// Affinity is set for measure "affinity".
	Affinity float64 `json:"affinity,omitempty"`
	// Interrupted reports that the mining was cut short (solve timeout or
	// client disconnect) and S is the best-so-far partial answer; the
	// observation was still folded into the expectation.
	Interrupted bool `json:"interrupted,omitempty"`
	// Mode is "scratch" (full-graph solve) or "incremental" (delta tick
	// mined on the delta's neighborhood, warm-started from the previous
	// subgraph). Full-snapshot observations are always scratch.
	Mode string `json:"mode,omitempty"`
	// WarmHit marks an incremental tick on which the locally-improved
	// previous subgraph beat every fresh solver candidate.
	WarmHit    bool      `json:"warm_hit,omitempty"`
	ObservedAt time.Time `json:"observed_at"`
	ElapsedMS  float64   `json:"elapsed_ms"`
}

// WatchReportsResponse is the body of GET /v1/watches/{name}/reports.
type WatchReportsResponse struct {
	Name string `json:"name"`
	Step int    `json:"step"`
	// Reports is the retained tail of the bounded ring, oldest first.
	Reports []WatchReport `json:"reports"`
}

// WatchStats summarizes the watch registry for /healthz. All counters are
// cumulative and keep counting deleted watches.
type WatchStats struct {
	Count        int `json:"count"`
	Observations int `json:"observations"`
	Anomalies    int `json:"anomalies"`
	// ScratchTicks and IncrementalTicks split Observations by solve path:
	// full-graph solves (snapshots, resyncs, drift re-checks, locality
	// fallbacks) versus delta ticks served by the warm-started region solve.
	ScratchTicks     int `json:"scratch_ticks"`
	IncrementalTicks int `json:"incremental_ticks"`
	// WarmHits counts incremental ticks won by the improved previous
	// subgraph; WarmHitRate is WarmHits/IncrementalTicks (0 when no
	// incremental tick has run).
	WarmHits    int     `json:"warm_hits"`
	WarmHitRate float64 `json:"warm_hit_rate"`
}

// PersistStats summarizes the persistence layer for /healthz. All counters
// are zero (and Enabled false) on an in-memory server.
type PersistStats struct {
	// Enabled reports whether the server was built with Open (a data
	// directory) rather than New (memory only).
	Enabled bool `json:"enabled"`
	// SnapshotsRestored/WatchesRestored count state recovered at boot.
	SnapshotsRestored int `json:"snapshots_restored"`
	WatchesRestored   int `json:"watches_restored"`
	// RestoreErrors counts boot-time state that could not be recovered
	// (unreadable manifests, checksum failures); the server boots degraded
	// rather than not at all.
	RestoreErrors int `json:"restore_errors"`
	// SnapshotWrites counts write-through snapshot mirrors (Put and Delete).
	SnapshotWrites int `json:"snapshot_writes"`
	// WatchCheckpoints counts watch-state checkpoints written.
	WatchCheckpoints int `json:"watch_checkpoints"`
	// WriteErrors counts failed disk writes of either kind; the in-memory
	// state stays authoritative when one fails.
	WriteErrors int `json:"write_errors"`
}

// MemoryStats summarizes the snapshot memory budget for /healthz. On an
// in-memory server (serve.New) only the heap figure is live and Enabled is
// false — there are no snapshot mappings to account.
type MemoryStats struct {
	// Enabled reports whether the out-of-core snapshot store is active
	// (serve.Open): snapshots served from lazily opened, evictable mappings.
	Enabled bool `json:"enabled"`
	// LimitBytes is the configured budget over open snapshot bytes
	// (Config.MemLimit, dcsd -memlimit); 0 means unlimited.
	LimitBytes int64 `json:"limit_bytes,omitempty"`
	// HeapInUseBytes is the Go runtime's in-use heap (spans holding live
	// objects) — the process side of the memory story; mapped snapshot
	// bytes live outside it.
	HeapInUseBytes uint64 `json:"heap_in_use_bytes"`
	// MappedBytes is the total size of open snapshot file mappings.
	MappedBytes int64 `json:"mapped_bytes"`
	// ShadowBytes counts heap bytes held by open snapshots beyond their
	// mapping: resident offset indexes, decoded compressed sections, and
	// whole graphs on platforms that cannot map.
	ShadowBytes int64 `json:"shadow_bytes"`
	// LazySnapshots counts registered on-disk snapshot versions (open or
	// not); OpenSnapshots the ones currently mapped; PinnedSnapshots the
	// open ones a running solve or job holds (eviction skips them).
	LazySnapshots   int `json:"lazy_snapshots"`
	OpenSnapshots   int `json:"open_snapshots"`
	PinnedSnapshots int `json:"pinned_snapshots"`
	// Evictions counts mappings closed under memory pressure; Remaps counts
	// re-opens of previously evicted snapshots (cold-start opens are neither).
	Evictions uint64 `json:"evictions"`
	Remaps    uint64 `json:"remaps"`
}

// HealthResponse is the body returned by GET /healthz.
type HealthResponse struct {
	Status    string  `json:"status"`
	Snapshots int     `json:"snapshots"`
	InFlight  int     `json:"in_flight"`
	Waiting   int     `json:"waiting"`
	UptimeSec float64 `json:"uptime_sec"`
	// DiffCache reports the difference-graph cache counters.
	DiffCache CacheStats `json:"diff_cache"`
	// Jobs reports the async job registry counters.
	Jobs JobStats `json:"jobs"`
	// Watches reports the streaming watch registry counters.
	Watches WatchStats `json:"watches"`
	// Persistence reports the durability layer's counters (serve.Open).
	Persistence PersistStats `json:"persistence"`
	// Memory reports the snapshot memory budget: heap in use, mapped bytes,
	// open/pinned snapshot counts, eviction and re-map counters.
	Memory MemoryStats `json:"memory"`
}

// ErrorResponse carries any non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}

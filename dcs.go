// Package dcs mines Density Contrast Subgraphs: given two undirected weighted
// graphs G1 and G2 over the same vertex set, it finds the subgraph whose
// density differs the most between them, implementing the algorithms of
// Yang, Chu, Zhang, Wang, Pei & Chen, "Mining Density Contrast Subgraphs"
// (ICDE 2018, arXiv:1802.06775).
//
// Two density measures are supported:
//
//   - Average degree ρ(S) = W(S)/|S| — maximize ρ2(S) − ρ1(S) with
//     FindAverageDegreeDCSOnParCtx (the paper's DCSGreedy, an
//     O(n)-approximation with a data-dependent ratio; the exact problem is
//     NP-hard and O(n^(1−ε))-inapproximable).
//   - Graph affinity f(x) = xᵀAx over the simplex — maximize f2(x) − f1(x)
//     with FindGraphAffinityDCSOnCtx (the paper's NewSEA: coordinate-descent
//     shrink-and-expansion with smart initialization; the result is always a
//     positive clique of the difference graph).
//
// Both reduce to mining the difference graph GD = G2 − G1, whose edge weights
// may be negative, so every solver except the ratio search takes GD itself:
// build it once with Difference (or DifferenceAlpha) and mine it as often as
// needed. All of the paper's conventions are preserved; in particular W(S)
// counts every undirected edge once per direction, so a unit-weight k-clique
// has average degree k−1 and affinity 1−1/k.
//
// Typical use:
//
//	b1 := dcs.NewBuilder(n) // relations yesterday
//	b2 := dcs.NewBuilder(n) // relations today
//	... b1.AddEdge(u, v, w) ...
//	gd := dcs.Difference(b1.Build(), b2.Build())
//	res := dcs.FindGraphAffinityDCSOnCtx(ctx, gd, nil)
//	fmt.Println(res.S, res.Affinity)
//
// To find subgraphs whose density *dropped*, swap the arguments of
// Difference. A pre-built signed graph (e.g. expected-vs-observed weights)
// is mined the same way, and mining a single positive-weight graph G is the
// traditional densest-subgraph problem (for graph affinity, that of Liu et
// al. [18], which Section V-C notes the coordinate-descent machinery solves
// competitively).
//
// # Cancellation
//
// Both DCS problems are NP-hard, so no caller can predict how long one solve
// will run. Every solver therefore takes a context.Context first: when the
// context is cancelled or its deadline expires, the solver unwinds within
// one checkpoint interval (~1024 inner-loop iterations, microseconds in
// practice) and returns its best-so-far partial result, flagged through the
// Interrupted result field or the returned interrupted bool — still a valid
// subgraph with exact metrics, just without the completed run's guarantees.
// With a context that never fires (context.Background()) the checkpoints
// cost under 2% on the solver hot loops.
//
// # Parallelism
//
// A single solve can spread its work over a bounded worker pool. The
// average-degree and ratio solvers take an explicit workers argument
// (FindAverageDegreeDCSOnParCtx, TopKAverageDegreeDCSOnParCtx,
// FindMaxRatioContrastParCtx); the multi-initialization affinity solvers
// (TopContrastCliquesOnCtx, TopKGraphAffinityDCSOnCtx) read
// Options.Parallelism, the one field of Options: the affinity solvers
// otherwise run at the fixed settings of the paper's experiments.
// FindGraphAffinityDCSOnCtx is always sequential: its pruned initialization
// order depends on every earlier result. Degrees ≤ 1 select the sequential
// path and degrees above GOMAXPROCS are capped.
// Parallel solves are bitwise-deterministic: for a fixed input the result is
// identical at every parallelism degree, including degree 1 — the engines
// only parallelize steps whose reduction order is fixed (per-component peels
// with a deterministic merge, concurrent candidate peels compared in a fixed
// order, independent initializations collected in start order).
// Cancellation composes: a cancelled parallel solve still returns its
// best-so-far partial.
package dcs

import (
	"context"
	"io"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/dataio"
	"github.com/dcslib/dcs/internal/egoscan"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// Graph is an immutable undirected weighted graph over vertices [0, n). Edge
// weights may be negative (difference graphs). Construct with NewBuilder or
// FromEdges.
type Graph = graph.Graph

// Builder accumulates edges for a Graph; parallel edges merge by summing.
type Builder = graph.Builder

// Edge is an undirected weighted edge.
type Edge = graph.Edge

// Neighbor is one adjacency-list entry.
type Neighbor = graph.Neighbor

// Stats summarizes a graph in the paper's Table II format.
type Stats = graph.Stats

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a Graph with n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Difference returns the difference graph GD = G2 − G1: the graph whose
// affinity matrix is A2 − A1. Both graphs must share the vertex count.
func Difference(g1, g2 *Graph) *Graph { return graph.Difference(g1, g2) }

// DifferenceAlpha returns GD = G2 − αG1, the generalized difference graph of
// Section III-D; maximizing density on it finds S with ρ2(S) − αρ1(S)
// maximized (an α-quasi-contrast).
func DifferenceAlpha(g1, g2 *Graph, alpha float64) *Graph {
	return graph.DifferenceAlpha(g1, g2, alpha)
}

// ApplyDelta returns the graph obtained from base by applying an edge-delta
// list: each entry sets the weight of edge (U, V) to W, with W = 0 removing
// the edge; the last entry wins when a pair repeats. It is the incremental
// alternative to rebuilding a snapshot — one linear CSR merge of the sorted
// delta against base, O(m + d log d + n) for d delta entries — and is how
// streaming consumers (the dcsd watch API) fold per-tick observations.
// Invalid entries (self-loops, out-of-range endpoints, non-finite weights)
// panic, matching Builder.AddEdge.
func ApplyDelta(base *Graph, delta []Edge) *Graph {
	return graph.ApplyDelta(base, delta)
}

// ReadGraphBinary reads a binary-format graph, verifying the checksums and
// every structural CSR invariant; corrupt or truncated input yields an
// error, never a malformed graph. Both format versions are accepted: v1
// files, written by earlier releases, stay readable.
func ReadGraphBinary(r io.Reader) (*Graph, error) { return dataio.ReadBinary(r) }

// WriteGraphBinaryV2 writes g in the binary graph format, version 2 — the
// only version written — and the on-disk format of the dcsd persistence
// layer and of .dcsg files: page-aligned sections (offsets, neighbor ids,
// weights) with per-section CRC32-C checksums, designed to be memory-mapped
// and served in place by OpenGraphMapped, and loading an order of magnitude
// faster than the text formats with byte-exact round trips. With compress
// set, sorted neighbor ids are varint-delta encoded and repetitive weights
// are palette-encoded, typically shrinking files 2–4× at the cost of
// decoding those sections to the heap on open. When w is an io.WriteSeeker
// (an *os.File is) the encoder streams; otherwise it assembles the file in
// memory first.
func WriteGraphBinaryV2(w io.Writer, g *Graph, compress bool) error {
	return dataio.WriteBinaryV2(w, g, compress)
}

// MappedGraph is an open binary graph file serving its CSR arrays straight
// from a read-only file mapping (or from a heap buffer on platforms and
// formats that cannot map). See OpenGraphMapped.
type MappedGraph = dataio.Mapped

// OpenGraphMapped opens a binary graph file for out-of-core serving.
// Version-2 files are memory-mapped: after one CRC + invariant verification
// pass, the O(e) adjacency stays in the kernel page cache and is paged in
// on demand, so a snapshot set larger than RAM can be served within a fixed
// heap budget. The returned graph is valid until Close; v1 files are
// heap-loaded through the same handle.
func OpenGraphMapped(path string) (*MappedGraph, error) { return dataio.OpenMapped(path) }

// VerifyGraphFile checksums a binary graph file (either version) with one
// sequential read and O(1) memory, without building the graph. It is how
// the dcsd store validates snapshots at boot before lazily mapping them.
func VerifyGraphFile(path string) error { return dataio.VerifyGraphFile(path) }

// AverageDegreeResult is a DCS under the average-degree measure.
type AverageDegreeResult = core.ADResult

// GraphAffinityResult is a DCS under the graph-affinity measure.
type GraphAffinityResult = core.GAResult

// Options sets the worker count of the multi-initialization graph-affinity
// solvers (Parallelism); a nil pointer means sequential. Every other setting
// of the affinity solvers is fixed at the paper's experimental values
// (Section VI-A).
type Options = core.GAOptions

// gaOptions dereferences an optional Options; nil is the zero value.
func gaOptions(opt *Options) Options {
	if opt == nil {
		return Options{}
	}
	return *opt
}

// ContrastClique is one positive clique found by the multi-initialization
// affinity solver, used for top-k contrast mining.
type ContrastClique = core.Clique

// FindAverageDegreeDCSOnParCtx finds the subgraph maximizing ρ2(S) − ρ1(S)
// by running DCSGreedy on the difference graph gd = G2 − G1 (or any signed
// graph), with the solve spread over at most workers goroutines: the
// Greedy(GD) and Greedy(GD+) peels run concurrently and each peel fans its
// connected components out on the pool. The result is bitwise identical to
// the sequential solver at every degree. When ctx is done the solver returns
// its best-so-far subgraph tagged Interrupted (see the package
// documentation).
func FindAverageDegreeDCSOnParCtx(ctx context.Context, gd *Graph, workers int) AverageDegreeResult {
	return core.DCSGreedy(runstate.New(ctx), gd, workers)
}

// FindGraphAffinityDCSOnCtx finds the embedding maximizing x'A2x − x'A1x by
// running NewSEA on the difference graph gd = G2 − G1. The result's support
// is always a positive clique of GD (every pair inside strengthened its
// connection from G1 to G2). opt is ignored; pass nil. NewSEA runs at the
// paper's settings and always sequentially: its pruned initialization loop
// needs each init's result before it can decide the next. When ctx is done
// the solver returns the best embedding found so far tagged Interrupted (see
// the package documentation).
func FindGraphAffinityDCSOnCtx(ctx context.Context, gd *Graph, opt *Options) GraphAffinityResult {
	return core.NewSEA(runstate.New(ctx), gd)
}

// TopContrastCliquesOnCtx mines many density-contrast cliques at once: it
// runs the coordinate-descent solver from every vertex of GD+, refines each
// result to a positive clique, de-duplicates, removes cliques subsumed by
// larger ones and returns them sorted by decreasing affinity difference.
// This is the procedure behind the paper's top-k emerging/disappearing topic
// lists. When ctx is done the remaining initializations are skipped and the
// cliques already found are returned, with interrupted reporting the early
// stop. The initializations run on opt.Parallelism workers (nil:
// sequential), bitwise identical at every degree.
func TopContrastCliquesOnCtx(ctx context.Context, gd *Graph, opt *Options) (cliques []ContrastClique, interrupted bool) {
	return core.CollectCliques(runstate.New(ctx), gd, gaOptions(opt))
}

// ValidateAverageDegreeResult re-derives every field of an
// AverageDegreeResult from the difference graph and reports the first
// inconsistency. Use it to guard pipelines that persist or transport results.
func ValidateAverageDegreeResult(gd *Graph, res AverageDegreeResult) error {
	return core.ValidateAD(gd, res)
}

// ValidateGraphAffinityResult is the GraphAffinityResult counterpart of
// ValidateAverageDegreeResult.
func ValidateGraphAffinityResult(gd *Graph, res GraphAffinityResult) error {
	return core.ValidateGA(gd, res)
}

// RatioContrastResult is the outcome of the α-quasi-contrast search.
type RatioContrastResult = core.RatioResult

// FindMaxRatioContrastParCtx searches for the largest α such that some
// subgraph S satisfies ρ2(S) ≥ α·ρ1(S), via binary search over the
// generalized difference graphs GD = G2 − αG1 of Section III-D, so it takes
// the two graphs rather than one difference graph. The returned α is
// certified by the witness S; it is +Inf when an edge exists only in G2 or
// has a negative G1 weight (the degeneracies that make the raw
// density-ratio objective ill-posed, Section III-C). Most probes are decided
// by the maximum edge of G2 − αG1 alone; the Algorithm 2 runs (counted in
// Solves) spread their peels over up to workers goroutines, bitwise
// identical to the sequential solver at every degree. When ctx is done the
// search stops after the probe in flight and returns the best certified
// witness so far, tagged Interrupted.
func FindMaxRatioContrastParCtx(ctx context.Context, g1, g2 *Graph, workers int) RatioContrastResult {
	return core.MaxRatioContrast(runstate.New(ctx), g1, g2, workers)
}

// TopKAverageDegreeDCSOnParCtx mines up to k vertex-disjoint density
// contrast subgraphs under the average-degree measure by iterating DCSGreedy
// on the difference graph with previously found vertices removed, each
// iteration run on at most workers goroutines. It extends the paper toward
// its stated future-work direction of mining multiple subgraphs with large
// density difference. The picks are bitwise identical to the sequential
// solver at every degree. When ctx is done the subgraphs already mined are
// returned and interrupted reports the early stop.
func TopKAverageDegreeDCSOnParCtx(ctx context.Context, gd *Graph, k, workers int) (results []AverageDegreeResult, interrupted bool) {
	return core.TopKAverageDegree(runstate.New(ctx), gd, k, workers)
}

// TopKGraphAffinityDCSOnCtx mines up to k vertex-disjoint positive cliques
// with the largest affinity differences (disjoint communities rather than
// the possibly-overlapping topics of TopContrastCliquesOnCtx). The clique
// collection runs on opt.Parallelism workers (nil: sequential), bitwise
// identical at every degree; a k ≤ 0 returns no cliques without collecting.
// When ctx is done, interrupted reports that the underlying clique
// collection stopped early, so the selection ran over a partial candidate
// pool.
func TopKGraphAffinityDCSOnCtx(ctx context.Context, gd *Graph, k int, opt *Options) (cliques []ContrastClique, interrupted bool) {
	return core.TopKGraphAffinity(runstate.New(ctx), gd, k, gaOptions(opt))
}

// MaxTotalWeightResult is a subgraph maximizing total weight difference
// W_D(S) (the objective of the EgoScan baseline, Cadena et al. [6]).
type MaxTotalWeightResult = egoscan.Result

// FindMaxTotalWeightSubgraphOnCtx maximizes the total edge-weight difference
// W2(S) − W1(S) on gd = G2 − G1 rather than a density — the objective of the
// paper's closest related work. Use it when very large contrast subgraphs
// are wanted (Section VI-E's guidance: graph affinity for small
// interpretable DCS, average degree for medium, total weight for the
// largest). When ctx is done the scan stops and the best candidate found so
// far is returned, tagged Interrupted.
func FindMaxTotalWeightSubgraphOnCtx(ctx context.Context, gd *Graph) MaxTotalWeightResult {
	return egoscan.Scan(runstate.New(ctx), gd)
}

// Package evolve detects anomalous dense structure in a stream of graph
// snapshots by mining density contrast subgraphs against an
// exponentially-weighted historical expectation — the anomaly-detection
// application of Section I of "Mining Density Contrast Subgraphs" (ICDE
// 2018): emerging traffic hotspot clusters, emerging communities, dark
// networks.
//
//	tr, err := evolve.New(nSensors, evolve.Config{Lambda: 0.3, MinDensity: 2})
//	...
//	for snapshot := range snapshots {
//	    rep, err := tr.ObserveCtx(ctx, snapshot)
//	    ...
//	    if rep.Anomalous() {
//	        alert(rep.S, rep.Contrast)
//	    }
//	}
//
// Persistent structure is absorbed into the expectation within a few steps
// and stops being reported; genuinely new dense structure surfaces the moment
// it appears.
//
// A Tracker is safe for concurrent use (observations serialize internally,
// while reads and checkpoints never wait for an in-flight solve), and
// ObserveCtx supports cooperative cancellation: an expired context stops
// the mining at its next checkpoint and the report carries the best-so-far
// partial subgraph with Interrupted set.
//
// Streams that arrive as edge deltas should use ObserveDeltaCtx instead of
// rebuilding snapshots: the tracker then maintains the difference graph
// incrementally (O(k) per k-edge delta) and warm-starts each tick's mining
// from the previous subgraph, re-solving from scratch every
// Config.ResyncEvery ticks for eventual exactness. The dcsd service exposes
// trackers over HTTP as watches (POST /v1/watches); see package serve.
package evolve

import (
	dcs "github.com/dcslib/dcs"
	ievolve "github.com/dcslib/dcs/internal/evolve"
)

// Config tunes a Tracker (decay, report threshold, measure). New rejects
// corrupting values — a lambda outside (0, 1] or a non-finite threshold —
// with a descriptive error; a zero Lambda means the default 0.3.
type Config = ievolve.Config

// Report is one observation step's finding.
type Report = ievolve.Report

// TickStats counts how a tracker's observation ticks were served:
// from-scratch solves versus incremental warm-started region solves, and how
// often the warm start won outright.
type TickStats = ievolve.TickStats

// Tracker is the streaming state; safe for concurrent use.
type Tracker = ievolve.Tracker

// DefaultResyncEvery is the scratch re-solve interval used when
// Config.ResyncEvery is 0.
const DefaultResyncEvery = ievolve.DefaultResyncEvery

// Tick modes reported in Report.Mode.
const (
	ModeScratch     = ievolve.ModeScratch
	ModeIncremental = ievolve.ModeIncremental
)

// New returns a Tracker over n vertices with an empty expectation, or an
// error describing an invalid vertex count or config.
func New(n int, cfg Config) (*Tracker, error) {
	return ievolve.New(n, cfg)
}

// Restore reconstructs a Tracker from previously checkpointed state — the
// expectation graph, last observation and step count of an earlier tracker
// (CheckpointState) — so a persisted stream resumes where it left off instead
// of cold-starting. A nil last observation is accepted as empty, for
// checkpoints predating the delta base. The config is validated as in New.
func Restore(n int, cfg Config, expect, last *dcs.Graph, step int) (*Tracker, error) {
	return ievolve.Restore(n, cfg, expect, last, step)
}

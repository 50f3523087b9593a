// Package runstate threads cooperative cancellation through solver inner
// loops. The DCS problems are NP-hard, so a caller can never predict how long
// one request will run; every long-running loop in the solver packages
// (internal/core, densest, egoscan, oqc, cores) therefore carries a State and
// polls it at a fixed amortized rate. A context exists only at the API
// boundary: the public entry points (package dcs, the evolve tracker) build
// one State per call with New(ctx), and every solver takes that State as its
// first parameter. When the underlying context is cancelled (client
// disconnect, deadline, an explicit job cancel) the solver unwinds within one
// checkpoint interval and returns its best-so-far partial result, tagged
// Interrupted.
//
// The design keeps the uncancellable path free: a State built from a nil or
// Background context has no done channel, and Checkpoint then reduces to two
// predictable branches — measured at well under 1% on the BenchmarkCore*
// suite.
package runstate

import "context"

// Interval is the amortization window: Checkpoint polls the context's done
// channel once every Interval calls, so one poll's cost (a select) is spread
// over Interval loop iterations. The value bounds cancellation latency at
// Interval iterations of the cheapest solver loop — microseconds in practice.
const Interval = 1024

// State carries one solver run's cancellation signal together with the
// amortization counter. A State is single-goroutine; hand each worker its own
// via Fork.
type State struct {
	done        <-chan struct{}
	countdown   int
	interrupted bool
}

// New derives a State from ctx. A nil context behaves like
// context.Background(): the run can never be interrupted and checkpoints are
// (almost) free. New(nil) is for callers with no cancellation source (batch
// experiments, offline topic mining); a function holding a ctx passes it,
// which dcsvet's ctxflow analyzer enforces.
func New(ctx context.Context) *State {
	if ctx == nil {
		return &State{}
	}
	// countdown 1 makes the very first Checkpoint poll: a solve entered with
	// an already-dead context (or one whose loops are shorter than Interval)
	// still observes the cancellation deterministically.
	return &State{done: ctx.Done(), countdown: 1}
}

// Fork returns an independent State observing the same cancellation signal,
// with a fresh amortization counter — for handing to worker goroutines.
func (s *State) Fork() *State {
	return &State{done: s.done, countdown: 1}
}

// Checkpoint reports whether the run is cancelled, polling the underlying
// channel on the first call and then once every Interval calls. Once it has
// returned true it keeps returning true without further polls.
func (s *State) Checkpoint() bool {
	if s.interrupted {
		return true
	}
	if s.done == nil {
		return false
	}
	if s.countdown--; s.countdown > 0 {
		return false
	}
	s.countdown = Interval
	return s.Cancelled()
}

// Cancelled polls the cancellation signal immediately (no amortization) and
// latches the result. Use it between coarse units of work — one solver
// initialization, one binary-search probe — where a full Interval of missed
// iterations would be too slow to react.
func (s *State) Cancelled() bool {
	if s.interrupted {
		return true
	}
	if s.done == nil {
		return false
	}
	select {
	case <-s.done:
		s.interrupted = true
		return true
	default:
		return false
	}
}

// Interrupted reports whether any previous poll observed cancellation. It
// never polls, so a run that finished before the signal arrived stays
// untagged.
func (s *State) Interrupted() bool { return s.interrupted }

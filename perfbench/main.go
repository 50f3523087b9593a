// Command perfbench is the dcsd end-to-end benchmark. It boots dcsd
// (serve.Server) in-process behind a loopback httptest server, drives one
// named workload from a single client over one keep-alive connection, checks
// every answer, and prints every metric by name and unit. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload mine-hot --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 replays the same seeded
// operations through the public library functions as well, timing each layer
// call from outside as a span, and reports the per-layer metrics; the spans
// are written to the work directory at exit. BENCHMARK.json at the
// repository root names every metric and documents the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	tiny     bool // tiny inputs, for the self-test
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), " | "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds of timed cycles")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced replay")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for data files and spans")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median. Only the last server is driven.
const setupReps = 9

// minCycles is the fewest timed cycles a phase runs, however long they take.
const minCycles = 5

func run(o options, out io.Writer) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames(), " | "))
	}
	sc := full
	if o.tiny {
		sc = tiny
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("work directory: %w", err)
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, fmt.Errorf("work directory: %w", err)
	}
	defer os.RemoveAll(dir)

	var setups []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		start := time.Now()
		e, err = w.setup(sc, o.seed, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()

	b := &bench{w: w, e: e, cl: newClient(e.url)}
	if o.trace {
		rp, err := e.replayer(filepath.Join(dir, "replay"))
		if err != nil {
			return nil, fmt.Errorf("replayer: %w", err)
		}
		b.rp = rp
	}
	// Cycle 0 is the untimed warm-up; its answers are the reference every
	// later cycle of a fixed workload must repeat, and the digest the
	// library replay must reproduce.
	if err := b.warmUp(); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	var ps phaseStats
	if o.trace {
		tr := newTracer()
		traced := b.phase(o.seconds/2, tr)
		b.rp.close()
		b.rp = nil
		ps = b.phase(o.seconds/2, nil)
		traceMetrics(res, tr, traced, ps)
		if err := tr.write(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.json", w.name, o.seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
		res.Attempted, res.Failed = traced.ops+ps.ops, traced.failed+ps.failed
	} else {
		ps = b.phase(o.seconds, nil)
		e2eMetrics(res, ps, setups, w.tail)
		res.Attempted, res.Failed = ps.ops, ps.failed
		// The replay runs after timing so that it costs the measured phase
		// nothing; it starts from the post-setup state, as the server did.
		rp, err := e.replayer(filepath.Join(dir, "replay"))
		if err != nil {
			return nil, fmt.Errorf("replayer: %w", err)
		}
		b.rp = rp
		b.checkReplay()
		rp.close()
	}
	res.Correct = b.problems == 0 && res.Failed == 0
	for _, p := range b.problemLog {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "workload %s seed %d trace %v: %d ops attempted, %d failed, correct %v\n",
		w.name, o.seed, o.trace, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	d := ps.diagnostics()
	d["setup.min_s"], d["setup.max_s"] = minOf(setups), maxOf(setups)
	diag, _ := json.Marshal(d)
	fmt.Fprintf(out, "diagnostics (not gated): %s\n", diag)
	return res, nil
}

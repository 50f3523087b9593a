package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/serve"
)

// op is one HTTP request of a workload; bodies are encoded before timing.
type op struct {
	class  string     // request class, e.g. "avgdeg" or "put"
	key    string     // the snapshot or watch the op addresses
	graph  *dcs.Graph // the uploaded graph, for put ops
	method string
	path   string
	body   []byte
}

// env is one set-up workload: a booted server holding its inputs.
type env struct {
	url string
	srv *serve.Server
	// cycle returns the ops of cycle c; cycles are generated in order.
	cycle func(c int) []op
	// check validates one answer and returns its digest line.
	check func(o op, status int, body []byte) (string, error)
	// verify checks a warm-up answer against the benchmark's own copy of
	// the inputs; nil when check covers everything.
	verify func(o op, body []byte) error
	// replayer builds a library replay starting from the post-setup state.
	replayer func(dir string) (replayer, error)
	close    func()
}

// replayer re-executes ops through the public library functions, timing
// each layer call as a span of tr when tr is non-nil, and returns the same
// digest line the server's answer gave.
type replayer interface {
	do(tr *tracer, opID int, o op) (string, error)
	close()
}

// client sends every request over one keep-alive connection.
type client struct {
	url  string
	hc   *http.Client
	resp bytes.Buffer
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{url: url, hc: &http.Client{Transport: tr}}
}

// do sends o and returns the status and full body; the body is valid until
// the next call.
func (c *client) do(o op) (int, []byte, error) {
	req, err := http.NewRequest(o.method, c.url+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.resp.Reset()
	if _, err := c.resp.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.resp.Bytes(), nil
}

// bench drives one env.
type bench struct {
	w  *workload
	e  *env
	cl *client
	rp replayer

	warmOps   []op
	warmLines []string
	next      int // next cycle index
	opID      int

	problems   int
	problemLog []string
}

func (b *bench) problem(format string, args ...any) {
	b.problems++
	if len(b.problemLog) < 10 {
		b.problemLog = append(b.problemLog, fmt.Sprintf(format, args...))
	}
}

func (b *bench) warmUp() error {
	b.warmOps = b.e.cycle(0)
	b.next = 1
	for i, o := range b.warmOps {
		status, body, err := b.cl.do(o)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", o.path, err)
		}
		line, err := b.e.check(o, status, body)
		if err != nil {
			b.problem("warm-up op %d (%s): %v", i, o.class, err)
		} else if b.e.verify != nil {
			if err := b.e.verify(o, body); err != nil {
				b.problem("warm-up op %d (%s): %v", i, o.class, err)
			}
		}
		b.warmLines = append(b.warmLines, line)
		if b.rp != nil {
			b.replayOne(nil, o, line)
		}
		b.opID++
	}
	return nil
}

// replayOne replays o and compares its digest line with the server's.
func (b *bench) replayOne(tr *tracer, o op, want string) {
	got, err := b.rp.do(tr, b.opID, o)
	switch {
	case err != nil:
		b.problem("replay of op %d (%s): %v", b.opID, o.class, err)
	case got != want:
		b.problem("op %d (%s): server answered %q, library replay %q", b.opID, o.class, want, got)
	}
}

// checkReplay replays the warm-up cycle through the library and compares
// digests.
func (b *bench) checkReplay() {
	b.opID = 0
	for i, o := range b.warmOps {
		b.replayOne(nil, o, b.warmLines[i])
		b.opID++
	}
}

// phaseStats is what one timed phase measured.
type phaseStats struct {
	lat         []float64 // per-op latency, ms, send to full body read
	cycleSec    []float64
	opsPerCycle int
	ops, failed int
	classLat    map[string][]float64
	cpuMS       float64
	wallSec     float64
	stealPct    float64
	peakRSSMB   float64
	mem0, mem1  runtime.MemStats
	cache0      serve.CacheStats
	cache1      serve.CacheStats
	memory0     serve.MemoryStats
	memory1     serve.MemoryStats
	httpMS      map[int]float64 // traced phases: per-op latency by op id
	reqBytes    int64
	respBytes   int64
}

// phase runs whole cycles until seconds have passed (and at least
// minCycles). With tr non-nil every op is also replayed and traced.
func (b *bench) phase(seconds float64, tr *tracer) phaseStats {
	ps := phaseStats{classLat: map[string][]float64{}}
	if tr != nil {
		ps.httpMS = map[int]float64{}
	}
	// Return set-up and warm-up garbage to the OS and restart the peak
	// resident set there, so that peak_rss_mb covers the timed traffic.
	debug.FreeOSMemory()
	resetPeakRSS()
	runtime.ReadMemStats(&ps.mem0)
	ps.cache0 = b.e.srv.DiffCacheStats()
	ps.memory0 = b.e.srv.MemoryStats()
	steal0 := readCPUStat()
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < minCycles || time.Since(start).Seconds() < seconds; c++ {
		ops := b.e.cycle(b.next)
		fixed := b.w.fixed
		b.next++
		cycleStart := time.Now()
		for i, o := range ops {
			var sp int
			if tr != nil {
				sp = tr.begin("http", -1, b.opID)
			}
			t0 := time.Now()
			status, body, err := b.cl.do(o)
			ms := float64(time.Since(t0)) / float64(time.Millisecond)
			if tr != nil {
				tr.end(sp)
				ps.httpMS[b.opID] = ms
			}
			ps.lat = append(ps.lat, ms)
			ps.ops++
			ps.classLat[o.class] = append(ps.classLat[o.class], ms)
			ps.reqBytes += int64(len(o.body))
			ps.respBytes += int64(len(body))
			if err != nil {
				ps.failed++
				b.problem("op %d (%s): %v", b.opID, o.class, err)
				b.opID++
				continue
			}
			line, err := b.e.check(o, status, body)
			if err != nil {
				ps.failed++
				b.problem("op %d (%s): %v", b.opID, o.class, err)
			} else if fixed && line != b.warmLines[i] {
				ps.failed++
				b.problem("op %d (%s): answer %q differs from the warm-up cycle's %q", b.opID, o.class, line, b.warmLines[i])
			}
			if tr != nil {
				b.replayOne(tr, o, line)
			}
			b.opID++
		}
		ps.cycleSec = append(ps.cycleSec, time.Since(cycleStart).Seconds())
		ps.opsPerCycle = len(ops)
	}
	ps.wallSec = time.Since(start).Seconds()
	ps.cpuMS = float64(cpuTime()-cpu0) / float64(time.Millisecond)
	ps.stealPct = stealPct(steal0, readCPUStat())
	ps.peakRSSMB = peakRSSMB()
	runtime.ReadMemStats(&ps.mem1)
	ps.cache1 = b.e.srv.DiffCacheStats()
	ps.memory1 = b.e.srv.MemoryStats()
	return ps
}

func (ps *phaseStats) diagnostics() map[string]float64 {
	ops := float64(max(ps.ops, 1))
	d := map[string]float64{
		"host.steal_pct":            ps.stealPct,
		"runtime.gc_cycles":         float64(ps.mem1.NumGC - ps.mem0.NumGC),
		"runtime.gc_pause_ms_total": float64(ps.mem1.PauseTotalNs-ps.mem0.PauseTotalNs) / 1e6,
		"runtime.alloc_mb_per_op":   float64(ps.mem1.TotalAlloc-ps.mem0.TotalAlloc) / 1e6 / ops,
		"phase.cycles":              float64(len(ps.cycleSec)),
		"phase.cycle_s_min":         minOf(ps.cycleSec),
		"phase.cycle_s_max":         maxOf(ps.cycleSec),
		"phase.throughput_wall_ops": float64(ps.ops) / ps.wallSec,
		"phase.latency_p90_ms":      percentile(ps.lat, 0.90),
		"phase.latency_p99_ms":      percentile(ps.lat, 0.99),
		"phase.latency_p95_ms":      percentile(ps.lat, 0.95),
		"phase.diffcache_hit_ratio": hitRatio(ps.cache0, ps.cache1),
		"phase.memory_evictions":    float64(ps.memory1.Evictions - ps.memory0.Evictions),
		"phase.memory_remaps":       float64(ps.memory1.Remaps - ps.memory0.Remaps),
	}
	for class, lat := range ps.classLat {
		d["class."+class+".p50_ms"] = median(lat)
		d["class."+class+".share"] = float64(len(lat)) / ops
	}
	return d
}

// e2eMetrics fills the end-to-end metrics of an untraced run.
func e2eMetrics(res *result, ps phaseStats, setups []float64, q float64) {
	if beyond := float64(len(ps.lat)) * (1 - q); beyond < 10 {
		fmt.Fprintf(os.Stderr, "warning: only %.0f samples beyond the p%g tail; it is not resolved\n", beyond, 100*q)
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["throughput_ops"] = metric{float64(ps.opsPerCycle) / median(ps.cycleSec), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{percentile(ps.lat, 0.5), "ms"}
	res.Metrics["latency_tail_ms"] = metric{percentile(ps.lat, q), "ms"}
	res.Metrics["cpu_ms_per_op"] = metric{ps.cpuMS / float64(max(ps.ops, 1)), "ms"}
	res.Metrics["peak_rss_mb"] = metric{ps.peakRSSMB, "MB"}
}

func hitRatio(a, b serve.CacheStats) float64 {
	hits, misses := float64(b.Hits-a.Hits), float64(b.Misses-a.Misses)
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func minOf(xs []float64) float64 { return percentile(xs, 0) }
func maxOf(xs []float64) float64 { return percentile(xs, 1) }

// layerSpans maps per-layer metrics to the span whose mean self time per
// call they report.
var layerSpans = []struct{ metric, span string }{
	{"serve.decode_ms", "serve.decode"},
	{"serve.build_ms", "serve.build"},
	{"serve.encode_ms", "serve.encode"},
	{"persist.write_ms", "persist.write"},
	{"dataio.map_open_ms", "dataio.map_open"},
	{"graph.diff_build_ms", "graph.diff_build"},
	{"core.avgdeg_ms", "core.avgdeg"},
	{"core.avgdeg_topk_ms", "core.avgdeg_topk"},
	{"core.affinity_ms", "core.affinity"},
	{"core.ratio_ms", "core.ratio"},
	{"core.validate_ms", "core.validate"},
	{"evolve.incremental_tick_ms", "evolve.incremental_tick"},
	{"evolve.scratch_tick_ms", "evolve.scratch_tick"},
}

// traceMetrics fills the per-layer metrics: layer times from the traced
// phase, runtime and host figures from the untraced phase that follows it.
func traceMetrics(res *result, tr *tracer, traced, plain phaseStats) {
	self := tr.selfTimes()
	for _, l := range layerSpans {
		var v float64
		if lt := self[l.span]; lt.calls > 0 {
			v = lt.ms / float64(lt.calls)
		}
		res.Metrics[l.metric] = metric{v, "ms"}
	}
	layer := tr.layerMS()
	var httpSelf float64
	for id, ms := range traced.httpMS {
		httpSelf += ms - layer[id]
	}
	ops := float64(traced.ops)
	res.Metrics["serve.http_self_ms"] = metric{httpSelf / ops, "ms"}
	res.Metrics["serve.req_bytes_per_op"] = metric{float64(traced.reqBytes) / ops, "B"}
	res.Metrics["serve.resp_bytes_per_op"] = metric{float64(traced.respBytes) / ops, "B"}
	res.Metrics["persist.bytes_per_put"] = metric{frac(tr.counts["persist.bytes"], tr.counts["persist.puts"]), "B"}
	res.Metrics["memory.evictions_per_op"] = metric{float64(traced.memory1.Evictions-traced.memory0.Evictions) / ops, "count"}
	res.Metrics["memory.remaps_per_op"] = metric{float64(traced.memory1.Remaps-traced.memory0.Remaps) / ops, "count"}
	res.Metrics["diffcache.hit_ratio"] = metric{hitRatio(traced.cache0, traced.cache1), "ratio"}
	res.Metrics["evolve.scratch_share"] = metric{frac(tr.counts["evolve.scratch_ticks"], tr.counts["evolve.ticks"]), "ratio"}
	res.Metrics["evolve.warm_hit_rate"] = metric{frac(tr.counts["evolve.warm_hits"], tr.counts["evolve.incremental_ticks"]), "ratio"}
	pops := float64(plain.ops)
	res.Metrics["runtime.alloc_mb_per_op"] = metric{float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc) / 1e6 / pops, "MB"}
	res.Metrics["runtime.gc_cycles_per_kop"] = metric{float64(plain.mem1.NumGC-plain.mem0.NumGC) * 1000 / pops, "count"}
	res.Metrics["runtime.gc_pause_ms_total"] = metric{float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs) / 1e6, "ms"}
	res.Metrics["host.steal_pct"] = metric{plain.stealPct, "%"}
	res.Metrics["bench.trace_overhead_pct"] = metric{100 * (percentile(traced.lat, 0.5)/percentile(plain.lat, 0.5) - 1), "%"}
}

// frac is a/b, or 0 when b is 0 (a layer the workload never reaches).
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

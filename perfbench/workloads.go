package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/serve"
)

// scale sizes every workload's inputs.
type scale struct {
	mineN, minePairs, ratioN       int
	ingestN, ingestSlots           int
	watchN, watches, watchK, ticks int
}

var (
	full = scale{
		mineN: 2000, minePairs: 6, ratioN: 250,
		ingestN: 2000, ingestSlots: 4,
		watchN: 8000, watches: 2, watchK: 64, ticks: 96,
	}
	tiny = scale{
		mineN: 300, minePairs: 1, ratioN: 150,
		ingestN: 200, ingestSlots: 2,
		watchN: 300, watches: 1, watchK: 8, ticks: 96,
	}
)

// workload is one named traffic mix.
type workload struct {
	name string
	// tail is the percentile of all timed latencies reported as
	// latency_tail_ms. It falls near the p65-p70 of the workload's
	// costliest request class; higher percentiles reach that class's
	// extreme, where host stalls dominate, and spread further between runs
	// (see README.md).
	tail float64
	// fixed workloads repeat the same ops, with the same answers, in every
	// cycle; the others (watch streams) move on.
	fixed bool
	setup func(sc scale, seed int64, dir string) (*env, error)
}

var workloads = map[string]*workload{
	"mine-hot":     {name: "mine-hot", tail: 0.90, fixed: true, setup: setupMineHot},
	"ingest-churn": {name: "ingest-churn", tail: 0.90, fixed: true, setup: setupIngestChurn},
	"watch-delta":  {name: "watch-delta", tail: 0.99, fixed: false, setup: setupWatchDelta},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// boot starts srv behind a loopback server and uploads the preload ops.
func boot(srv *serve.Server, preload []op) (*env, error) {
	ts := httptest.NewServer(srv)
	e := &env{url: ts.URL, srv: srv, close: func() { ts.Close(); srv.Close() }}
	cl := newClient(ts.URL)
	for _, o := range preload {
		status, body, err := cl.do(o)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("preload %s %s: %w", o.class, o.key, err)
		}
	}
	cl.hc.CloseIdleConnections()
	return e, nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are encoded
	}
	return data
}

func graphJSON(g *dcs.Graph) serve.GraphJSON {
	gj := serve.GraphJSON{N: g.N(), Edges: make([]serve.EdgeJSON, 0, g.M())}
	g.VisitEdges(func(u, v int, w float64) { gj.Edges = append(gj.Edges, serve.EdgeJSON{U: u, V: v, W: w}) })
	return gj
}

func putOp(name string, g *dcs.Graph) op {
	return op{class: "put", method: http.MethodPost, path: "/v1/snapshots", key: name, graph: g,
		body: mustJSON(serve.SnapshotRequest{Name: name, GraphJSON: graphJSON(g)})}
}

func dcsOp(class, measure, g1, g2 string, k int) op {
	return op{class: class, method: http.MethodPost, path: "/v1/dcs", key: g2,
		body: mustJSON(serve.DCSRequest{Measure: measure, G1: g1, G2: g2, K: k})}
}

// hash shortens a digest line.
func hash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

func fmtF(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// dcsDigest is the digest line of a /v1/dcs answer: every mined set and its
// objective value, bit for bit.
func dcsDigest(r *serve.DCSResponse) string {
	var sb strings.Builder
	sb.WriteString(r.Measure)
	for _, s := range r.Results {
		fmt.Fprintf(&sb, "|%v d=%s a=%s", s.S, fmtF(s.Density), fmtF(s.Affinity))
	}
	if r.Ratio != nil {
		fmt.Fprintf(&sb, "|%v alpha=%s unbounded=%v", r.Ratio.S, fmtF(r.Ratio.Alpha), r.Ratio.Unbounded)
	}
	return hash(sb.String())
}

func checkStatus(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	return nil
}

func checkDCS(status int, body []byte) (string, error) {
	if err := checkStatus(status, body); err != nil {
		return "", err
	}
	var r serve.DCSResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return "", err
	}
	if r.Interrupted {
		return "", fmt.Errorf("interrupted answer")
	}
	if r.Ratio == nil && len(r.Results) == 0 {
		return "", fmt.Errorf("empty answer")
	}
	return dcsDigest(&r), nil
}

// ---- mine-hot --------------------------------------------------------------

// setupMineHot preloads minePairs coauthor snapshot pairs, each with a
// small companion pair whose G1 includes every G2 edge, so that the ratio
// search is bounded and costs about as much as a top-5 request.
func setupMineHot(sc scale, seed int64, _ string) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	graphs := map[string]*dcs.Graph{}
	pairs := map[string]*pair{} // by G2 name
	var preload, cycle []op
	add := func(name string, g *dcs.Graph) {
		graphs[name] = g
		preload = append(preload, putOp(name, g))
	}
	for p := 0; p < sc.minePairs; p++ {
		g1, g2, planted, _ := coauthorPair(rng, sc.mineN, 5)
		r1, r2, rPlanted, _ := coauthorPair(rng, sc.ratioN, 5)
		r1 = union(r1, r2)
		a1, a2 := fmt.Sprintf("p%d.g1", p), fmt.Sprintf("p%d.g2", p)
		b1, b2 := fmt.Sprintf("r%d.g1", p), fmt.Sprintf("r%d.g2", p)
		add(a1, g1)
		add(a2, g2)
		add(b1, r1)
		add(b2, r2)
		pairs[a2] = newPair(g1, g2, planted)
		pairs[b2] = newPair(r1, r2, rPlanted)
		// avgdeg k=1 is over half of the cycle, so the median lands inside
		// its narrow cost band whichever side of it the affinity requests
		// (whose cost varies most between graphs) fall on. The classes
		// interleave so that a slow phase of the host hits them evenly.
		avg := dcsOp("avgdeg", "avgdeg", a1, a2, 1)
		cycle = append(cycle, avg, dcsOp("affinity", "affinity", a1, a2, 1), avg,
			dcsOp("avgdeg_top5", "avgdeg", a1, a2, 5), avg, dcsOp("ratio", "ratio", b1, b2, 0), avg)
	}
	e, err := boot(serve.New(serve.Config{CheckpointInterval: -1}), preload)
	if err != nil {
		return nil, err
	}
	e.cycle = func(int) []op { return cycle }
	e.check = func(_ op, status int, body []byte) (string, error) { return checkDCS(status, body) }
	e.verify = func(o op, body []byte) error {
		return verifyDCSOp(o, body, func(req *serve.DCSRequest) *pair { return pairs[req.G2] })
	}
	e.replayer = func(string) (replayer, error) {
		return &mineReplayer{graphs: graphs, diffs: map[[2]string]*dcs.Graph{}}, nil
	}
	return e, nil
}

// mineReplayer mines resident graphs, keeping difference graphs by pair as
// the server's cache does (no entry is ever evicted at this size).
type mineReplayer struct {
	graphs map[string]*dcs.Graph
	diffs  map[[2]string]*dcs.Graph
}

func (r *mineReplayer) do(tr *tracer, id int, o op) (string, error) {
	root := tr.begin("replay", -1, id)
	defer tr.end(root)
	var req serve.DCSRequest
	var err error
	tr.timed("serve.decode", root, func() { err = json.Unmarshal(o.body, &req) })
	if err != nil {
		return "", err
	}
	g1, g2 := r.graphs[req.G1], r.graphs[req.G2]
	key := [2]string{req.G1, req.G2}
	gd := r.diffs[key]
	if gd == nil && req.Measure != "ratio" {
		tr.timed("graph.diff_build", root, func() { gd = dcs.DifferenceAlpha(g1, g2, 1) })
		r.diffs[key] = gd
	}
	return mineOn(tr, root, &req, g1, g2, gd)
}

func (r *mineReplayer) close() {}

// mineOn runs one validated DCS request the way the server's solve does,
// then assembles and encodes the response, returning its digest line.
func mineOn(tr *tracer, root int, req *serve.DCSRequest, g1, g2, gd *dcs.Graph) (string, error) {
	ctx := context.Background()
	resp := &serve.DCSResponse{Measure: req.Measure, Parallelism: 1}
	var err error
	switch req.Measure {
	case "ratio":
		var res dcs.RatioContrastResult
		tr.timed("core.ratio", root, func() { res = dcs.FindMaxRatioContrastParCtx(ctx, g1, g2, 1) })
		tr.timed("serve.encode", root, func() {
			resp.Ratio = &serve.RatioJSON{S: res.S, Density1: res.Density1, Density2: res.Density2}
			if math.IsInf(res.Alpha, 1) {
				resp.Ratio.Unbounded = true
			} else {
				resp.Ratio.Alpha = res.Alpha
			}
		})
	case "avgdeg":
		k := max(req.K, 1)
		name := "core.avgdeg"
		if k > 1 {
			name = "core.avgdeg_topk"
		}
		var results []dcs.AverageDegreeResult
		tr.timed(name, root, func() { results, _ = dcs.TopKAverageDegreeDCSOnParCtx(ctx, gd, k, 1) })
		tr.timed("core.validate", root, func() {
			for _, res := range results {
				if err == nil {
					err = dcs.ValidateAverageDegreeResult(gd, res)
				}
			}
		})
		for _, res := range results {
			resp.Results = append(resp.Results, serve.SubgraphJSON{S: res.S, Density: res.Density,
				TotalWeight: res.TotalWeight, EdgeDensity: res.EdgeDensity, ApproxRatio: res.Ratio,
				PositiveClique: res.PositiveClique, Connected: res.Connected})
		}
	case "affinity":
		var res dcs.GraphAffinityResult
		tr.timed("core.affinity", root, func() { res = dcs.FindGraphAffinityDCSOnCtx(ctx, gd, &dcs.Options{Parallelism: 1}) })
		tr.timed("core.validate", root, func() { err = dcs.ValidateGraphAffinityResult(gd, res) })
		tr.timed("serve.encode", root, func() {
			w, density, edgeDensity := gd.SubgraphMetrics(res.S)
			weights := make([]float64, len(res.S))
			for i, v := range res.S {
				weights[i] = res.X.Get(v)
			}
			resp.Results = append(resp.Results, serve.SubgraphJSON{S: res.S, Density: density,
				TotalWeight: w, EdgeDensity: edgeDensity, Affinity: res.Affinity, Weights: weights,
				PositiveClique: gd.IsPositiveClique(res.S), Connected: gd.IsConnected(res.S)})
		})
	default:
		return "", fmt.Errorf("unexpected measure %q", req.Measure)
	}
	if err != nil {
		return "", err
	}
	tr.timed("serve.encode", root, func() { encodeIndented(resp) })
	return dcsDigest(resp), nil
}

// ---- ingest-churn ----------------------------------------------------------

// setupIngestChurn boots a durable server under a memory budget below its
// working set, holding one base snapshot and ingestSlots churned ones.
func setupIngestChurn(sc scale, seed int64, dir string) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	base, g2, emerging, disappearing := coauthorPair(rng, sc.ingestN, 5)
	// Two reweighted variants per slot alternate, so consecutive uploads of
	// one name always change its content.
	variants := make([][2]*dcs.Graph, sc.ingestSlots)
	for s := range variants {
		variants[s] = [2]*dcs.Graph{reweight(rng, g2), reweight(rng, g2)}
	}
	slot := func(s int) string { return fmt.Sprintf("s%d", s) }
	preload := []op{putOp("base", base)}
	// current holds the pairs as uploaded, by "g1>g2".
	current := map[string]*pair{}
	uploaded := func(name string, g *dcs.Graph) {
		current["base>"+name] = newPair(base, g, emerging)
		current[name+">base"] = newPair(g, base, disappearing)
	}
	var cycle []op
	for s := range variants {
		preload = append(preload, putOp(slot(s), variants[s][1]))
		uploaded(slot(s), variants[s][1])
	}
	// Each upload is mined in both directions, and both miss the cache: the
	// mines are two thirds of the ops, so the median lands inside their cost
	// band rather than on the boundary with the costlier uploads.
	for parity := 0; parity < 2; parity++ {
		for s := range variants {
			cycle = append(cycle, putOp(slot(s), variants[s][parity]),
				dcsOp("mine", "avgdeg", "base", slot(s), 1), dcsOp("mine_rev", "avgdeg", slot(s), "base", 1))
		}
	}
	// The budget holds about three of the ingestSlots+1 snapshots.
	limit := 3 * v2Bytes(base)
	srv, err := serve.Open(serve.Config{MemLimit: limit, CheckpointInterval: -1}, dir)
	if err != nil {
		return nil, err
	}
	e, err := boot(srv, preload)
	if err != nil {
		return nil, err
	}
	e.cycle = func(int) []op { return cycle }
	e.check = func(o op, status int, body []byte) (string, error) {
		if o.class != "put" {
			return checkDCS(status, body)
		}
		if err := checkStatus(status, body); err != nil {
			return "", err
		}
		var info serve.SnapshotInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return "", err
		}
		return putDigest(info.Name, info.N, info.M, info.TotalWeight), nil
	}
	e.verify = func(o op, body []byte) error {
		if o.class == "put" {
			var info serve.SnapshotInfo
			if err := json.Unmarshal(body, &info); err != nil {
				return err
			}
			if info.N != o.graph.N() || info.M != o.graph.M() || !near(info.TotalWeight, o.graph.TotalWeight()) {
				return fmt.Errorf("stored %+v, uploaded n=%d m=%d w=%v", info, o.graph.N(), o.graph.M(), o.graph.TotalWeight())
			}
			uploaded(o.key, o.graph)
			return nil
		}
		return verifyDCSOp(o, body, func(req *serve.DCSRequest) *pair { return current[req.G1+">"+req.G2] })
	}
	e.replayer = func(rdir string) (replayer, error) { return newIngestReplayer(rdir, preload) }
	return e, nil
}

func putDigest(name string, n, m int, tw float64) string {
	return fmt.Sprintf("put %s n=%d m=%d w=%s", name, n, m, fmtF(tw))
}

// v2Bytes is the size of g's uncompressed v2 file.
func v2Bytes(g *dcs.Graph) int64 {
	var c countingWriter
	if err := dcs.WriteGraphBinaryV2(&c, g, false); err != nil {
		return 0
	}
	return int64(c)
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// ---- watch-delta -----------------------------------------------------------

// setupWatchDelta registers watches over coauthor-sized graphs and seeds
// each with one full snapshot; the cycles then feed k-edge churn deltas.
func setupWatchDelta(sc scale, seed int64, _ string) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	var preload []op
	seeds := make([]*dcs.Graph, sc.watches)
	streams := make([]*deltaStream, sc.watches)
	watchName := func(w int) string { return fmt.Sprintf("w%d", w) }
	for w := range seeds {
		_, seeds[w], _, _ = coauthorPair(rng, sc.watchN, 5)
		streams[w] = newDeltaStream(rng, seeds[w], sc.watchK)
		name := watchName(w)
		preload = append(preload,
			op{class: "register", method: http.MethodPost, path: "/v1/watches", key: name,
				body: mustJSON(serve.WatchRequest{Name: name, N: sc.watchN})},
			op{class: "seed", method: http.MethodPost, path: "/v1/watches/" + name + "/observe", key: name,
				body: mustJSON(serve.WatchObserveRequest{Graph: ptr(graphJSON(seeds[w]))})})
	}
	e, err := boot(serve.New(serve.Config{CheckpointInterval: -1}), preload)
	if err != nil {
		return nil, err
	}
	var generated [][]op
	e.cycle = func(c int) []op {
		for len(generated) <= c {
			var ops []op
			for t := 0; t < sc.ticks; t++ {
				for w, st := range streams {
					delta := st.next()
					body := serve.WatchObserveRequest{Delta: make([]serve.EdgeJSON, len(delta))}
					for i, d := range delta {
						body.Delta[i] = serve.EdgeJSON{U: d.U, V: d.V, W: d.W}
					}
					ops = append(ops, op{class: "tick", method: http.MethodPost,
						path: "/v1/watches/" + watchName(w) + "/observe", key: watchName(w), body: mustJSON(body)})
				}
			}
			generated = append(generated, ops)
			if len(generated) > 1 {
				generated[len(generated)-2] = nil // the bench holds the warm-up cycle for the replay
			}
		}
		return generated[c]
	}
	steps := map[string]int{}
	mobs := map[string][]int{}
	for w, st := range streams {
		steps[watchName(w)] = 1 // the seed snapshot was step 1
		mobs[watchName(w)] = st.mob
	}
	e.check = func(o op, status int, body []byte) (string, error) {
		if err := checkStatus(status, body); err != nil {
			return "", err
		}
		var rep serve.WatchReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return "", err
		}
		steps[o.key]++
		if rep.Step != steps[o.key] {
			return "", fmt.Errorf("watch %s answered step %d, want %d", o.key, rep.Step, steps[o.key])
		}
		if rep.Interrupted || (rep.Mode != "scratch" && rep.Mode != "incremental") {
			return "", fmt.Errorf("watch %s step %d: interrupted %v, mode %q", o.key, rep.Step, rep.Interrupted, rep.Mode)
		}
		// The planted burst outweighs any churn, so its tick must report it.
		if tick := rep.Step - 1; tick%burstEvery == 0 && !containsAll(rep.S, mobs[o.key]) {
			return "", fmt.Errorf("watch %s step %d missed the planted burst %v (reported %v)", o.key, rep.Step, mobs[o.key], rep.S)
		}
		return watchDigest(o.key, rep.Step, rep.Anomalous, rep.Mode, rep.S, rep.Contrast), nil
	}
	e.replayer = func(string) (replayer, error) { return newWatchReplayer(sc.watchN, seeds) }
	return e, nil
}

func ptr[T any](v T) *T { return &v }

func containsAll(s, sub []int) bool {
	for _, v := range sub {
		if !slices.Contains(s, v) {
			return false
		}
	}
	return true
}

func watchDigest(name string, step int, anomalous bool, mode string, S []int, contrast float64) string {
	return hash(fmt.Sprintf("%s|%d|%v|%s|%v|%s", name, step, anomalous, mode, S, fmtF(contrast)))
}

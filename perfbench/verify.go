package main

import (
	"encoding/json"
	"fmt"
	"math"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/serve"
)

// The warm-up cycle's answers are checked against the benchmark's own copy
// of the inputs, independently of the library: a solver that returns a
// wrong or much worse set fails the run even though the library replay,
// running the same solver, would agree with it. Later cycles must then
// repeat the warm-up answers (fixed workloads) and every answer must match
// the library replay.

// weights is the benchmark's own edge-weight table of one uploaded graph.
type weights map[[2]int]float64

func newWeights(g *dcs.Graph) weights {
	w := weights{}
	g.VisitEdges(func(u, v int, x float64) { w[[2]int{u, v}] = x })
	return w
}

func (w weights) at(u, v int) float64 {
	if u > v {
		u, v = v, u
	}
	return w[[2]int{u, v}]
}

// sum is W(S), the weight inside S summed over ordered pairs (each edge
// twice), the paper's convention: ρ(S) = W(S)/|S|.
func (w weights) sum(S []int) float64 {
	var s float64
	for i, u := range S {
		for _, v := range S[i+1:] {
			s += w.at(u, v)
		}
	}
	return 2 * s
}

// pair is one uploaded snapshot pair with the groups planted as emerging in
// its G2: lower bounds on what each measure must find.
type pair struct {
	g1, g2  *dcs.Graph
	w1, w2  weights // built on first use, outside setup
	planted [][]int
}

func newPair(g1, g2 *dcs.Graph, planted [][]int) *pair {
	return &pair{g1: g1, g2: g2, planted: planted}
}

// diff is W_D(S) = W2(S) − W1(S).
func (p *pair) diff(S []int) float64 { return p.w2.sum(S) - p.w1.sum(S) }

// quality is the fraction of the best planted group's objective an answer
// must reach. The solvers' guarantees are data-dependent, so the floor is
// loose; a set that is not a real contrast falls far below it.
const quality = 0.5

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func validSet(S []int, n int) error {
	if len(S) == 0 {
		return fmt.Errorf("empty set")
	}
	for i, v := range S {
		if v < 0 || v >= n || (i > 0 && v <= S[i-1]) {
			return fmt.Errorf("set %v is not increasing within [0,%d)", S, n)
		}
	}
	return nil
}

// verifyDCSOp decodes a /v1/dcs op and its answer and verifies the answer
// against the pair the request names.
func verifyDCSOp(o op, body []byte, pairOf func(*serve.DCSRequest) *pair) error {
	var req serve.DCSRequest
	var resp serve.DCSResponse
	if err := json.Unmarshal(o.body, &req); err != nil {
		return err
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	return verifyDCS(&req, &resp, pairOf(&req))
}

// verifyDCS recomputes a /v1/dcs answer's objectives from p.
func verifyDCS(req *serve.DCSRequest, r *serve.DCSResponse, p *pair) error {
	if p.w1 == nil {
		p.w1, p.w2 = newWeights(p.g1), newWeights(p.g2)
	}
	switch req.Measure {
	case "avgdeg":
		best := 0.0
		for _, g := range p.planted {
			best = math.Max(best, p.diff(g)/float64(len(g)))
		}
		seen := map[int]bool{}
		for i, res := range r.Results {
			if err := validSet(res.S, p.g1.N()); err != nil {
				return err
			}
			w := p.diff(res.S)
			if !near(w, res.TotalWeight) || !near(w/float64(len(res.S)), res.Density) {
				return fmt.Errorf("result %d: reported W=%v ρ=%v, recomputed W=%v", i, res.TotalWeight, res.Density, w)
			}
			for _, v := range res.S {
				if seen[v] {
					return fmt.Errorf("top-k results share vertex %d", v)
				}
				seen[v] = true
			}
		}
		if len(r.Results) != max(req.K, 1) || r.Results[0].Density < quality*best {
			return fmt.Errorf("%d results, best density %v; want %d results and density ≥ %v·%v",
				len(r.Results), r.Results[0].Density, max(req.K, 1), quality, best)
		}
	case "affinity":
		res := r.Results[0]
		if err := validSet(res.S, p.g1.N()); err != nil {
			return err
		}
		var f, total float64
		for i, u := range res.S {
			x := res.Weights[i]
			if x < 0 {
				return fmt.Errorf("negative simplex weight %v", x)
			}
			total += x
			for j, v := range res.S[i+1:] {
				f += 2 * x * res.Weights[i+1+j] * (p.w2.at(u, v) - p.w1.at(u, v))
			}
		}
		best := 0.0
		for _, g := range p.planted {
			best = math.Max(best, p.diff(g)/float64(len(g)*len(g)))
		}
		if !near(total, 1) || !near(f, res.Affinity) || f < quality*best {
			return fmt.Errorf("weights sum to %v, affinity reported %v recomputed %v, planted best %v", total, res.Affinity, f, best)
		}
	case "ratio":
		res := r.Ratio
		if err := validSet(res.S, p.g1.N()); err != nil {
			return err
		}
		d1, d2 := p.w1.sum(res.S)/float64(len(res.S)), p.w2.sum(res.S)/float64(len(res.S))
		best := 0.0
		for _, g := range p.planted {
			best = math.Max(best, p.w2.sum(g)/p.w1.sum(g))
		}
		if res.Unbounded || !near(d1, res.Density1) || !near(d2, res.Density2) ||
			d2 < res.Alpha*d1*(1-1e-9) || res.Alpha < quality*best {
			return fmt.Errorf("ratio answer %+v: recomputed ρ1=%v ρ2=%v, planted best ratio %v", *res, d1, d2, best)
		}
	}
	return nil
}

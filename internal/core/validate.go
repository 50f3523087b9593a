package core

import (
	"fmt"
	"math"

	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/simplex"
)

// ValidateAD checks every invariant an ADResult promises against the
// difference graph it was mined from, returning a descriptive error on the
// first violation. Intended for defensive use in pipelines and as a shared
// assertion helper in tests.
func ValidateAD(gd *graph.Graph, res ADResult) error {
	if len(res.S) == 0 {
		if gd.N() != 0 {
			return fmt.Errorf("dcs: empty S on a non-empty graph")
		}
		return nil
	}
	seen := make(map[int]bool, len(res.S))
	prev := -1
	for _, v := range res.S {
		if v < 0 || v >= gd.N() {
			return fmt.Errorf("dcs: vertex %d out of range [0,%d)", v, gd.N())
		}
		if seen[v] {
			return fmt.Errorf("dcs: duplicate vertex %d in S", v)
		}
		if v <= prev {
			return fmt.Errorf("dcs: S not sorted at %d", v)
		}
		seen[v] = true
		prev = v
	}
	if err := checkMetrics(gd, res.S, res.TotalWeight, res.Density, res.EdgeDensity); err != nil {
		return err
	}
	if got := gd.IsPositiveClique(res.S); got != res.PositiveClique {
		return fmt.Errorf("dcs: positive-clique flag %v, recomputed %v", res.PositiveClique, got)
	}
	if got := gd.IsConnected(res.S); got != res.Connected {
		return fmt.Errorf("dcs: connected flag %v, recomputed %v", res.Connected, got)
	}
	if res.Ratio != 0 && res.Ratio < 1-1e-9 {
		return fmt.Errorf("dcs: approximation ratio %v below 1", res.Ratio)
	}
	return nil
}

// ValidateGA checks a GAResult: the embedding is on the simplex, the support
// matches, the affinity and all three density figures recompute, and the
// positive-clique promise of Theorem 5 holds when flagged.
func ValidateGA(gd *graph.Graph, res GAResult) error {
	if res.X == nil {
		return fmt.Errorf("dcs: nil embedding")
	}
	if res.X.N() != gd.N() {
		return fmt.Errorf("dcs: embedding over %d vertices, graph has %d", res.X.N(), gd.N())
	}
	if gd.N() == 0 {
		return nil
	}
	if !res.X.OnSimplex(1e-6) {
		return fmt.Errorf("dcs: embedding mass %v is not 1", res.X.Sum())
	}
	sup := res.X.Support()
	if len(sup) != len(res.S) {
		return fmt.Errorf("dcs: S has %d vertices, support has %d", len(res.S), len(sup))
	}
	for i := range sup {
		if sup[i] != res.S[i] {
			return fmt.Errorf("dcs: S and support disagree at position %d", i)
		}
	}
	if got := simplex.Affinity(gd, res.X); !approxEq(got, res.Affinity) {
		return fmt.Errorf("dcs: affinity %v does not match recomputation %v", res.Affinity, got)
	}
	if err := checkMetrics(gd, res.S, res.TotalWeight, res.Density, res.EdgeDensity); err != nil {
		return err
	}
	if got := gd.IsPositiveClique(res.S); got != res.PositiveClique {
		return fmt.Errorf("dcs: positive-clique flag %v, recomputed %v", res.PositiveClique, got)
	}
	return nil
}

// checkMetrics recomputes S's three density figures in one walk and compares
// them with a result's reported W(S), ρ(S) and edge density.
func checkMetrics(gd *graph.Graph, S []int, w, density, edgeDensity float64) error {
	gotW, gotDensity, gotEdgeDensity := gd.SubgraphMetrics(S)
	if !approxEq(gotDensity, density) {
		return fmt.Errorf("dcs: density %v does not match recomputation %v", density, gotDensity)
	}
	if !approxEq(gotW, w) {
		return fmt.Errorf("dcs: total weight %v does not match recomputation %v", w, gotW)
	}
	if !approxEq(gotEdgeDensity, edgeDensity) {
		return fmt.Errorf("dcs: edge density %v does not match recomputation %v", edgeDensity, gotEdgeDensity)
	}
	return nil
}

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

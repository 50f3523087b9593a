package core

import (
	"github.com/dcslib/dcs/internal/runstate"
	"math/rand"
	"testing"
	"testing/quick"
)

// Properties of the exact upper-bound certificate:
// 1 ≤ β* ≤ β (Theorem 2's bound), and β*·ρ_D(S) ≥ OPT (validity).
func TestExactUpperBoundRatio(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		gd := randomSignedGraph(rng, n, 0.45, 4)
		res := DCSGreedy(runstate.New(nil), gd, 1)
		beta := ExactUpperBoundRatio(gd, res)
		if beta < 1 {
			return false
		}
		if res.Ratio > 0 && beta > res.Ratio+1e-6 {
			return false // must never be looser than the greedy certificate
		}
		opt := BruteForceAD(gd)
		return beta*res.Density+1e-6 >= opt.Density
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestExactUpperBoundRatioDegenerate(t *testing.T) {
	gd := randomSignedGraph(rand.New(rand.NewSource(1)), 4, 0, 1) // edgeless
	res := DCSGreedy(runstate.New(nil), gd, 1)
	if beta := ExactUpperBoundRatio(gd, res); beta != 1 {
		t.Fatalf("edgeless graph: beta = %v, want 1", beta)
	}
}

// On the Fig. 1 example DCSGreedy is optimal, so the exact certificate is
// exactly 1 while Theorem 2's bound is 2.
func TestExactUpperBoundRatioFigure1(t *testing.T) {
	gd := figure1GD()
	res := DCSGreedy(runstate.New(nil), gd, 1)
	beta := ExactUpperBoundRatio(gd, res)
	if beta > 1.0+1e-6 {
		t.Fatalf("beta* = %v, want 1 (DCSGreedy is optimal here)", beta)
	}
	if res.Ratio < beta {
		t.Fatalf("greedy certificate %v must be looser than exact %v", res.Ratio, beta)
	}
}

package core

import (
	"github.com/dcslib/dcs/internal/runstate"
	"math/rand"
	"testing"
	"testing/quick"
)

// Every result the solvers produce must validate.
func TestSolversProduceValidResults(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		gd := randomSignedGraph(rng, n, 0.4, 5)
		if err := ValidateAD(gd, DCSGreedy(runstate.New(nil), gd, 1)); err != nil {
			t.Log(err)
			return false
		}
		if err := ValidateAD(gd, GreedyGDOnly(runstate.New(nil), gd)); err != nil {
			t.Log(err)
			return false
		}
		if err := ValidateGA(gd, NewSEA(runstate.New(nil), gd)); err != nil {
			t.Log(err)
			return false
		}
		if err := ValidateGA(gd, SEARefineFull(runstate.New(nil), gd, GAOptions{})); err != nil {
			t.Log(err)
			return false
		}
		top, _ := TopKAverageDegree(runstate.New(nil), gd, 3, 1)
		for _, r := range top {
			if err := ValidateAD(gd, r); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Corrupted results must be rejected with a specific complaint.
func TestValidateRejectsCorruption(t *testing.T) {
	gd := figure1GD()
	good := DCSGreedy(runstate.New(nil), gd, 1)
	if err := ValidateAD(gd, good); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	bad := good
	bad.Density += 1
	if ValidateAD(gd, bad) == nil {
		t.Error("wrong density accepted")
	}
	bad = good
	bad.S = append([]int{}, good.S...)
	bad.S[0], bad.S[1] = bad.S[1], bad.S[0]
	if ValidateAD(gd, bad) == nil {
		t.Error("unsorted S accepted")
	}
	bad = good
	bad.PositiveClique = !bad.PositiveClique
	if ValidateAD(gd, bad) == nil {
		t.Error("wrong clique flag accepted")
	}
	bad = good
	bad.S = []int{0, 0, 2}
	if ValidateAD(gd, bad) == nil {
		t.Error("duplicate vertices accepted")
	}
	bad = good
	bad.S = []int{0, 99}
	if ValidateAD(gd, bad) == nil {
		t.Error("out-of-range vertex accepted")
	}

	goodGA := NewSEA(runstate.New(nil), gd)
	if err := ValidateGA(gd, goodGA); err != nil {
		t.Fatalf("clean GA result rejected: %v", err)
	}
	badGA := goodGA
	badGA.Affinity *= 2
	if ValidateGA(gd, badGA) == nil {
		t.Error("wrong affinity accepted")
	}
	badGA = goodGA
	badGA.TotalWeight += 1
	if ValidateGA(gd, badGA) == nil {
		t.Error("wrong GA total weight accepted")
	}
	badGA = goodGA
	badGA.EdgeDensity += 1
	if ValidateGA(gd, badGA) == nil {
		t.Error("wrong GA edge density accepted")
	}
	badGA = goodGA
	badGA.S = badGA.S[:1]
	if ValidateGA(gd, badGA) == nil {
		t.Error("support mismatch accepted")
	}
	badGA = goodGA
	badGA.X = nil
	if ValidateGA(gd, badGA) == nil {
		t.Error("nil embedding accepted")
	}
}

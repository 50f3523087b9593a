package core

import (
	"testing"
	"time"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// Scalability smoke test: the quasi-linear DCSAD pipeline and the
// smart-initialized DCSGA pipeline must handle a 100k-vertex difference graph
// comfortably. Guarded by -short for quick CI runs.
func TestLargeGraphScalability(t *testing.T) {
	if testing.Short() {
		t.Skip("large-graph smoke test")
	}
	ca := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: 5, N: 100000, NumEach: 12})
	gd := graph.Difference(ca.G1, ca.G2)
	t.Logf("graph: n=%d m=%d", gd.N(), gd.M())

	start := time.Now()
	ad := DCSGreedy(runstate.New(nil), gd, 1)
	tAD := time.Since(start)
	if err := ValidateAD(gd, ad); err != nil {
		t.Fatal(err)
	}
	if ad.Density <= 0 {
		t.Fatal("planted structure not found")
	}
	t.Logf("DCSGreedy: %v (density %.1f, |S|=%d)", tAD, ad.Density, len(ad.S))
	if tAD > 30*time.Second {
		t.Errorf("DCSGreedy too slow at 100k vertices: %v", tAD)
	}

	start = time.Now()
	ga := NewSEA(runstate.New(nil), gd, GAOptions{})
	tGA := time.Since(start)
	if err := ValidateGA(gd, ga); err != nil {
		t.Fatal(err)
	}
	if !ga.PositiveClique || ga.Affinity <= 0 {
		t.Fatalf("degenerate GA result: %+v", ga.Affinity)
	}
	t.Logf("NewSEA: %v (affinity %.1f, |S|=%d, %d inits)",
		tGA, ga.Affinity, len(ga.S), ga.Stats.Inits)
	if tGA > 30*time.Second {
		t.Errorf("NewSEA too slow at 100k vertices: %v", tGA)
	}
}

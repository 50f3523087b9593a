package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/runstate"
)

// TableVIIRow reports the DCSGA algorithms' running time on one dataset.
type TableVIIRow struct {
	Dataset      *Dataset
	NewSEA       time.Duration
	SEACDRefine  time.Duration
	SEARefine    time.Duration
	SEAErrors    int // expansion errors made by SEA+Refine
	NewSEAErrors int // expansion errors made by NewSEA
	SEACDErrors  int // expansion errors made by SEACD+Refine
	NewSEAInits  int
	NewSEAResult float64 // affinity, for cross-checking quality
	SEACDResult  float64
	SEAResult    float64
}

// TableVII measures the running time of NewSEA, SEACD+Refine and SEA+Refine
// on every dataset, plus the number of expansion errors of the original SEA —
// reproducing Table VII. This is the most expensive experiment in the suite.
func (s *Suite) TableVII(w io.Writer) []TableVIIRow {
	var rows []TableVIIRow
	for _, d := range s.Datasets() {
		row := TableVIIRow{Dataset: d}
		var rNew, rCD, rSEA core.GAResult
		row.NewSEA = timed(func() { rNew = core.NewSEA(runstate.New(nil), d.GD) })
		row.SEACDRefine = timed(func() { rCD = core.SEACDRefineFull(runstate.New(nil), d.GD, core.GAOptions{}) })
		row.SEARefine = timed(func() { rSEA = core.SEARefineFull(runstate.New(nil), d.GD, core.GAOptions{}) })
		row.SEAErrors = rSEA.Stats.ExpansionErrors
		row.NewSEAErrors = rNew.Stats.ExpansionErrors
		row.SEACDErrors = rCD.Stats.ExpansionErrors
		row.NewSEAInits = rNew.Stats.Inits
		row.NewSEAResult = rNew.Affinity
		row.SEACDResult = rCD.Affinity
		row.SEAResult = rSEA.Affinity
		rows = append(rows, row)
		if w != nil {
			// Stream rows as they complete; the run is long.
			fmt.Fprintf(w, "%-28s NewSEA %10.3fs (%d inits)  SEACD+Refine %10.3fs  SEA+Refine %10.3fs  #Err %d\n",
				d.Name(), row.NewSEA.Seconds(), row.NewSEAInits,
				row.SEACDRefine.Seconds(), row.SEARefine.Seconds(), row.SEAErrors)
		}
	}
	return rows
}

// Fig2Point is one point of Fig. 2: positive density m⁺/n against the
// SEACD-vs-SEA speed-up (a) and the SEA expansion-error rate (b).
type Fig2Point struct {
	DensityPos  float64 // m⁺/n
	SpeedUp     float64 // time(SEA+Refine) / time(SEACD+Refine)
	ErrorRate   float64 // SEA expansion errors / n
	SEACDErrors int     // expansion errors made by SEACD+Refine
}

// Fig2 runs the density sweep behind Fig. 2.
func (s *Suite) Fig2(w io.Writer) []Fig2Point {
	n := 600
	densities := []float64{2, 5, 10, 20, 30}
	if s.Quick {
		n = 200
		densities = []float64{2, 6, 12}
	}
	pts := datagen.DensitySweep(datagen.SweepConfig{Seed: s.seed() + 100, N: n, Densities: densities})
	var out []Fig2Point
	for _, p := range pts {
		st := p.GD.ComputeStats()
		var rCD, rSEA core.GAResult
		tCD := timed(func() { rCD = core.SEACDRefineFull(runstate.New(nil), p.GD, core.GAOptions{}) })
		tSEA := timed(func() { rSEA = core.SEARefineFull(runstate.New(nil), p.GD, core.GAOptions{}) })
		pt := Fig2Point{
			DensityPos:  st.Density,
			SpeedUp:     tSEA.Seconds() / max(tCD.Seconds(), 1e-9),
			ErrorRate:   float64(rSEA.Stats.ExpansionErrors) / float64(p.GD.N()),
			SEACDErrors: rCD.Stats.ExpansionErrors,
		}
		out = append(out, pt)
		if w != nil {
			fmt.Fprintf(w, "m+/n %7.2f  speedup %8.2fx  SEA error rate %.5f\n",
				pt.DensityPos, pt.SpeedUp, pt.ErrorRate)
		}
	}
	return out
}

package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/densest"
	"github.com/dcslib/dcs/internal/oqc"
	"github.com/dcslib/dcs/internal/runstate"
)

// AblationRow compares DCSGreedy's heuristic certificate against the exact
// Goldberg upper bound and positions the OQC quasi-clique baseline (ref [24])
// on the same difference graph. These are extensions beyond the paper's
// tables, probing the design choices DESIGN.md calls out.
type AblationRow struct {
	Dataset *Dataset

	// Certificates for the DCSAD result.
	Density     float64       // ρ_D(S) of DCSGreedy
	GreedyRatio float64       // Theorem 2's data-dependent β
	ExactRatio  float64       // β* from Goldberg's exact densest subgraph on GD+
	ExactUBTime time.Duration // cost of the exact certificate

	// Greedy peeling data-structure ablation.
	HeapTime    time.Duration
	SegTreeTime time.Duration

	// OQC baseline (α = 1/3, the reference default) on the same GD.
	OQCSize    int
	OQCSurplus float64
	OQCDensity float64 // edge surplus density over possible pairs
}

// Ablations runs the extension experiments on the four DBLP graphs.
func (s *Suite) Ablations(w io.Writer) []AblationRow {
	var rows []AblationRow
	for _, name := range []string{
		"DBLP/Weighted/Emerging", "DBLP/Weighted/Disappearing",
		"DBLP/Discrete/Emerging", "DBLP/Discrete/Disappearing",
	} {
		d := s.Get(name)
		res := core.DCSGreedy(runstate.New(nil), d.GD, 1)
		row := AblationRow{Dataset: d, Density: res.Density, GreedyRatio: res.Ratio}
		row.ExactUBTime = timed(func() {
			row.ExactRatio = core.ExactUpperBoundRatio(d.GD, res)
		})
		row.HeapTime = timed(func() { densest.Greedy(runstate.New(nil), d.GD) })
		row.SegTreeTime = timed(func() { densest.GreedySegTree(d.GD) })
		o := oqc.Best(runstate.New(nil), d.GD, 1.0/3)
		row.OQCSize = len(o.S)
		row.OQCSurplus = o.Surplus
		row.OQCDensity = o.Density
		rows = append(rows, row)
	}
	if w != nil {
		tw := newTabWriter(w)
		fmt.Fprintln(tw, "Dataset\tρ_D(S)\tβ greedy\tβ* exact\tUB time\theap\tsegtree\tOQC |S|\tOQC surplus")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%.4g\t%.3g\t%.3g\t%.3fs\t%.4fs\t%.4fs\t%d\t%.4g\n",
				r.Dataset.Name(), r.Density, r.GreedyRatio, r.ExactRatio,
				r.ExactUBTime.Seconds(), r.HeapTime.Seconds(), r.SegTreeTime.Seconds(),
				r.OQCSize, r.OQCSurplus)
		}
		tw.Flush()
	}
	return rows
}

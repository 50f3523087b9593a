package bench

import (
	"fmt"
	"io"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/egoscan"
	"github.com/dcslib/dcs/internal/runstate"
)

// TableVIIIRow describes the subgraph EgoScan finds on one DBLP difference
// graph.
type TableVIIIRow struct {
	Setting        string
	GDType         string
	NumAuthors     int
	NumEdges       int
	PositiveClique bool
	AvgDegreeDiff  float64
	EdgeDensity    float64
}

// TableVIII runs the EgoScan baseline on the four DBLP difference graphs,
// reproducing Table VIII: EgoScan's subgraphs are much larger and much less
// dense than the DCS results of Table IV.
func (s *Suite) TableVIII(w io.Writer) []TableVIIIRow {
	var rows []TableVIIIRow
	for _, name := range []string{
		"DBLP/Weighted/Emerging", "DBLP/Weighted/Disappearing",
		"DBLP/Discrete/Emerging", "DBLP/Discrete/Disappearing",
	} {
		d := s.Get(name)
		res := egoscan.Scan(runstate.New(nil), d.GD)
		edges := 0
		sub, _ := d.GD.Induced(res.S)
		edges = sub.M()
		rows = append(rows, TableVIIIRow{
			Setting: d.Setting, GDType: d.GDType,
			NumAuthors: len(res.S), NumEdges: edges,
			PositiveClique: res.PositiveClique,
			AvgDegreeDiff:  res.Density,
			EdgeDensity:    res.EdgeDensity,
		})
	}
	if w != nil {
		tw := newTabWriter(w)
		fmt.Fprintln(tw, "Setting\tGD Type\t#Authors\t#Edges\tPositive Clique?\tAveDeg Diff\tEdge Density Diff")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%.4g\t%.4g\n",
				r.Setting, r.GDType, r.NumAuthors, r.NumEdges,
				yesNo(r.PositiveClique), r.AvgDegreeDiff, r.EdgeDensity)
		}
		tw.Flush()
	}
	return rows
}

// TableIXRow compares the total-edge-weight difference achieved by the three
// families of algorithms on one DBLP difference graph.
type TableIXRow struct {
	Setting   string
	GDType    string
	DCSGreedy float64 // W_D(S) of the DCSGreedy subgraph
	NewSEA    float64 // W_D(Sx) of the NewSEA support
	EgoScan   float64 // W_D(S) of the EgoScan subgraph
}

// TableIX reproduces Table IX: under the total-weight metric EgoScan wins —
// the metrics measure different things, which is the paper's point.
func (s *Suite) TableIX(w io.Writer) []TableIXRow {
	var rows []TableIXRow
	for _, name := range []string{
		"DBLP/Weighted/Emerging", "DBLP/Weighted/Disappearing",
		"DBLP/Discrete/Emerging", "DBLP/Discrete/Disappearing",
	} {
		d := s.Get(name)
		ad := core.DCSGreedy(runstate.New(nil), d.GD, 1)
		ga := core.NewSEA(runstate.New(nil), d.GD)
		eg := egoscan.Scan(runstate.New(nil), d.GD)
		rows = append(rows, TableIXRow{
			Setting: d.Setting, GDType: d.GDType,
			DCSGreedy: ad.TotalWeight, NewSEA: ga.TotalWeight, EgoScan: eg.TotalWeight,
		})
	}
	if w != nil {
		tw := newTabWriter(w)
		fmt.Fprintln(tw, "Setting\tGD Type\tDCSGreedy\tNewSEA (W_D(Sx))\tEgoScan")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\n",
				r.Setting, r.GDType, r.DCSGreedy, r.NewSEA, r.EgoScan)
		}
		tw.Flush()
	}
	return rows
}

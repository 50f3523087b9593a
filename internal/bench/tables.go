package bench

import (
	"fmt"
	"io"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// TableIIRow is one row of Table II: statistics of a difference graph.
type TableIIRow struct {
	Dataset *Dataset
	Stats   graph.Stats
}

// TableII computes the statistics of every difference graph and renders them
// in the paper's layout.
func (s *Suite) TableII(w io.Writer) []TableIIRow {
	rows := make([]TableIIRow, 0, 16)
	for _, d := range s.Datasets() {
		rows = append(rows, TableIIRow{Dataset: d, Stats: d.GD.ComputeStats()})
	}
	if w != nil {
		tw := newTabWriter(w)
		fmt.Fprintln(tw, "Data\tSetting\tGD Type\tn\tm+\tm-\tMax w\tMin w\tAverage w")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%.4g\t%.4g\t%.4g\n",
				r.Dataset.Data, r.Dataset.Setting, r.Dataset.GDType,
				r.Stats.N, r.Stats.MPos, r.Stats.MNeg, r.Stats.MaxW, r.Stats.MinW, r.Stats.AvgW)
		}
		tw.Flush()
	}
	return rows
}

// GroupRow is one row of Tables III+IV: a co-author group found under a given
// setting, GD type and density measure.
type GroupRow struct {
	Setting        string
	GDType         string
	Measure        string // "Average Degree" or "Graph Affinity"
	Members        []int
	MemberLabels   string
	NumAuthors     int
	PositiveClique bool
	AvgDegreeDiff  float64
	ApproxRatio    float64 // average-degree measure only
	AffinityDiff   float64 // graph-affinity measure only
	EdgeDensity    float64 // W_D(S)/|S|²
}

// TableIV runs both DCS algorithms on the four DBLP difference graphs and
// reports the found groups, reproducing Tables III+IV.
func (s *Suite) TableIV(w io.Writer) []GroupRow {
	var rows []GroupRow
	for _, name := range []string{
		"DBLP/Weighted/Emerging", "DBLP/Weighted/Disappearing",
		"DBLP/Discrete/Emerging", "DBLP/Discrete/Disappearing",
	} {
		d := s.Get(name)
		ad := core.DCSGreedy(runstate.New(nil), d.GD, 1)
		rows = append(rows, GroupRow{
			Setting: d.Setting, GDType: d.GDType, Measure: "Average Degree",
			Members: ad.S, MemberLabels: labelSet(d.Labels, ad.S, 8),
			NumAuthors: len(ad.S), PositiveClique: ad.PositiveClique,
			AvgDegreeDiff: ad.Density, ApproxRatio: ad.Ratio, EdgeDensity: ad.EdgeDensity,
		})
		ga := core.NewSEA(runstate.New(nil), d.GD, s.Opt)
		rows = append(rows, GroupRow{
			Setting: d.Setting, GDType: d.GDType, Measure: "Graph Affinity",
			Members: ga.S, MemberLabels: labelSet(d.Labels, ga.S, 8),
			NumAuthors: len(ga.S), PositiveClique: ga.PositiveClique,
			AvgDegreeDiff: ga.Density, AffinityDiff: ga.Affinity, EdgeDensity: ga.EdgeDensity,
		})
	}
	if w != nil {
		tw := newTabWriter(w)
		fmt.Fprintln(tw, "Setting\tGD Type\tDensity\t#Authors\tPositive Clique?\tAveDeg Diff\tApprox Ratio\tAffinity Diff\tEdge Density Diff")
		for _, r := range rows {
			ratio, aff := "—", "—"
			if r.Measure == "Average Degree" {
				ratio = fmt.Sprintf("%.3g", r.ApproxRatio)
			} else {
				aff = fmt.Sprintf("%.4g", r.AffinityDiff)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%.4g\t%s\t%s\t%.4g\n",
				r.Setting, r.GDType, r.Measure, r.NumAuthors, yesNo(r.PositiveClique),
				r.AvgDegreeDiff, ratio, aff, r.EdgeDensity)
		}
		tw.Flush()
	}
	return rows
}

// TopicRow is one entry of Table V/VI: a keyword set with per-keyword simplex
// weights and its affinity.
type TopicRow struct {
	Rank     int
	Keywords string // "social (0.5), networks (0.5)" style
	Affinity float64
	Members  []int
}

// TableV mines the top-k emerging and disappearing topics w.r.t. graph
// affinity on the DM dataset, reproducing Table V.
func (s *Suite) TableV(w io.Writer, k int) (emerging, disappearing []TopicRow) {
	kw := s.Keywords()
	emerging = s.topTopics(kw.EmergingGD(), kw.Labels, k)
	disappearing = s.topTopics(kw.DisappearingGD(), kw.Labels, k)
	if w != nil {
		tw := newTabWriter(w)
		fmt.Fprintln(tw, "Rank\tEmerging\tf_D\tDisappearing\tf_D")
		for i := 0; i < k; i++ {
			e, d := "—", "—"
			var fe, fd float64
			if i < len(emerging) {
				e, fe = emerging[i].Keywords, emerging[i].Affinity
			}
			if i < len(disappearing) {
				d, fd = disappearing[i].Keywords, disappearing[i].Affinity
			}
			fmt.Fprintf(tw, "%d\t{%s}\t%.3f\t{%s}\t%.3f\n", i+1, e, fe, d, fd)
		}
		tw.Flush()
	}
	return emerging, disappearing
}

// TableVI mines the top-k topics of each era *separately* (single-graph
// affinity maxima), reproducing Table VI — the paper's demonstration of why
// single-graph mining cannot find trends.
func (s *Suite) TableVI(w io.Writer, k int) (era1, era2 []TopicRow) {
	kw := s.Keywords()
	// Single-graph dense subgraph mining is the DCS problem against an empty
	// G1 (the reduction in Theorem 3).
	era1 = s.topTopics(kw.G1, kw.Labels, k)
	era2 = s.topTopics(kw.G2, kw.Labels, k)
	if w != nil {
		tw := newTabWriter(w)
		fmt.Fprintln(tw, "Rank\tG1 (era 1)\tf\tG2 (era 2)\tf")
		for i := 0; i < k; i++ {
			e, d := "—", "—"
			var fe, fd float64
			if i < len(era1) {
				e, fe = era1[i].Keywords, era1[i].Affinity
			}
			if i < len(era2) {
				d, fd = era2[i].Keywords, era2[i].Affinity
			}
			fmt.Fprintf(tw, "%d\t{%s}\t%.3f\t{%s}\t%.3f\n", i+1, e, fe, d, fd)
		}
		tw.Flush()
	}
	return era1, era2
}

// topTopics collects contrast cliques on gd and renders the top k with
// simplex weights, like "social (0.5), networks (0.5)".
func (s *Suite) topTopics(gd *graph.Graph, labels []string, k int) []TopicRow {
	cliques, _ := core.CollectCliques(runstate.New(nil), gd, s.Opt)
	var out []TopicRow
	for i, c := range cliques {
		if i >= k {
			break
		}
		// Re-derive the optimal embedding weights for rendering by running
		// the affinity solver restricted to the clique.
		x := cliqueEmbedding(gd, c.S)
		desc := ""
		for j, v := range c.S {
			if j > 0 {
				desc += ", "
			}
			name := fmt.Sprintf("v%d", v)
			if v < len(labels) {
				name = labels[v]
			}
			desc += fmt.Sprintf("%s (%.2g)", name, x[j])
		}
		out = append(out, TopicRow{Rank: i + 1, Keywords: desc, Affinity: c.Affinity, Members: c.S})
	}
	return out
}

// cliqueEmbedding returns the optimal simplex weights over a (positive)
// clique support, aligned with S's order.
func cliqueEmbedding(gd *graph.Graph, S []int) []float64 {
	x := core.CliqueEmbedding(runstate.New(nil), gd, S)
	out := make([]float64, len(S))
	for i, v := range S {
		out[i] = x.Get(v)
	}
	return out
}

package bench

import (
	"fmt"
	"io"
	"sort"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/runstate"
)

// ADCompareRow is one row of Tables X and XII: the three average-degree
// miners (DCSGreedy, Greedy on GD only, Greedy on GD+ only) on one dataset.
type ADCompareRow struct {
	Dataset *Dataset
	Full    core.ADResult // DCSGreedy (with data-dependent ratio)
	GDOnly  core.ADResult
	GDPlus  core.ADResult
}

func (s *Suite) adCompare(w io.Writer, names []string) []ADCompareRow {
	var rows []ADCompareRow
	for _, name := range names {
		d := s.Get(name)
		rows = append(rows, ADCompareRow{
			Dataset: d,
			Full:    core.DCSGreedy(runstate.New(nil), d.GD, 1),
			GDOnly:  core.GreedyGDOnly(runstate.New(nil), d.GD),
			GDPlus:  core.GreedyGDPlusOnly(runstate.New(nil), d.GD),
		})
	}
	if w != nil {
		tw := newTabWriter(w)
		fmt.Fprintln(tw, "GD Type\t|S| full\tρ full\tRatio\tClique?\t|S| GD-only\tρ GD-only\t|S| GD+-only\tρ GD+-only")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s/%s\t%d\t%.4g\t%.3g\t%s\t%d\t%.4g\t%d\t%.4g\n",
				r.Dataset.Data, r.Dataset.GDType,
				len(r.Full.S), r.Full.Density, r.Full.Ratio, yesNo(r.Full.PositiveClique),
				len(r.GDOnly.S), r.GDOnly.Density,
				len(r.GDPlus.S), r.GDPlus.Density)
		}
		tw.Flush()
	}
	return rows
}

// TableX compares the DCSAD miners on the Wiki data (appendix Table X).
func (s *Suite) TableX(w io.Writer) []ADCompareRow {
	return s.adCompare(w, []string{"Wiki/—/Consistent", "Wiki/—/Conflicting"})
}

// GARow is one row of Tables XI, XIII and XIV: a DCSGA result on one dataset.
type GARow struct {
	Dataset     *Dataset
	Result      core.GAResult
	NumVertices int
}

func (s *Suite) gaRows(w io.Writer, names []string) []GARow {
	var rows []GARow
	for _, name := range names {
		d := s.Get(name)
		res := core.NewSEA(runstate.New(nil), d.GD, s.Opt)
		rows = append(rows, GARow{Dataset: d, Result: res, NumVertices: len(res.S)})
	}
	if w != nil {
		tw := newTabWriter(w)
		fmt.Fprintln(tw, "Dataset\t#Vertices\tGraph Affinity Diff\tEdge Density Diff\tPositive Clique?")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%d\t%.4g\t%.4g\t%s\n",
				r.Dataset.Name(), r.NumVertices, r.Result.Affinity,
				r.Result.EdgeDensity, yesNo(r.Result.PositiveClique))
		}
		tw.Flush()
	}
	return rows
}

// TableXI reports DCSGA on the Wiki data (appendix Table XI).
func (s *Suite) TableXI(w io.Writer) []GARow {
	return s.gaRows(w, []string{"Wiki/—/Consistent", "Wiki/—/Conflicting"})
}

// TableXII compares the DCSAD miners on the Douban data (appendix Table XII).
func (s *Suite) TableXII(w io.Writer) []ADCompareRow {
	return s.adCompare(w, []string{
		"Movie/—/Interest−Social", "Movie/—/Social−Interest",
		"Book/—/Interest−Social", "Book/—/Social−Interest",
	})
}

// TableXIII reports DCSGA on the Douban data (appendix Table XIII).
func (s *Suite) TableXIII(w io.Writer) []GARow {
	return s.gaRows(w, []string{
		"Movie/—/Interest−Social", "Movie/—/Social−Interest",
		"Book/—/Interest−Social", "Book/—/Social−Interest",
	})
}

// TableXIV reports DCSGA on the DBLP-C and Actor data (appendix Table XIV).
func (s *Suite) TableXIV(w io.Writer) []GARow {
	return s.gaRows(w, []string{
		"DBLP-C/Weighted/—", "DBLP-C/Discrete/—",
		"Actor/Weighted/—", "Actor/Discrete/—",
	})
}

// Fig3Series is one curve of Fig. 3: counts of positive cliques by size found
// by full-initialization SEACD+Refine on one Douban difference graph.
type Fig3Series struct {
	Dataset *Dataset
	MinSize int
	Counts  map[int]int // clique size → count
}

// Fig3 reproduces the clique-count histograms of Fig. 3. The paper uses
// minSize 10 for Movie and 8 for Book; synthetic scale shifts sizes down, so
// the thresholds are parameters (use 2 or 3 at Quick scale).
func (s *Suite) Fig3(w io.Writer, movieMin, bookMin int) []Fig3Series {
	var out []Fig3Series
	for _, spec := range []struct {
		name string
		min  int
	}{
		{"Movie/—/Interest−Social", movieMin},
		{"Movie/—/Social−Interest", movieMin},
		{"Book/—/Interest−Social", bookMin},
		{"Book/—/Social−Interest", bookMin},
	} {
		d := s.Get(spec.name)
		cliques, _ := core.CollectCliques(runstate.New(nil), d.GD, s.Opt)
		counts := make(map[int]int)
		for _, c := range cliques {
			if len(c.S) >= spec.min {
				counts[len(c.S)]++
			}
		}
		out = append(out, Fig3Series{Dataset: d, MinSize: spec.min, Counts: counts})
		if w != nil {
			fmt.Fprintf(w, "%s (size ≥ %d):", d.Name(), spec.min)
			sizes := make([]int, 0, len(counts))
			for k := range counts {
				sizes = append(sizes, k)
			}
			sort.Ints(sizes)
			for _, k := range sizes {
				fmt.Fprintf(w, "  %d:%d", k, counts[k])
			}
			fmt.Fprintln(w)
		}
	}
	return out
}

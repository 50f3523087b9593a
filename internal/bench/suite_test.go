package bench

import (
	"bytes"
	"strings"
	"testing"
)

// quickSuite returns a CI-scale suite shared across tests in this package.
func quickSuite() *Suite {
	return &Suite{Quick: true}
}

func TestDatasetsBuild(t *testing.T) {
	s := quickSuite()
	ds := s.Datasets()
	if len(ds) != 16 {
		t.Fatalf("got %d datasets, want the 16 rows of Table II", len(ds))
	}
	for _, d := range ds {
		if d == nil {
			t.Fatal("nil dataset")
		}
		if d.GD.N() == 0 {
			t.Fatalf("%s: empty graph", d.Name())
		}
		if len(d.Labels) != d.GD.N() {
			t.Fatalf("%s: %d labels for %d vertices", d.Name(), len(d.Labels), d.GD.N())
		}
	}
}

func TestTableIIShapes(t *testing.T) {
	s := quickSuite()
	var buf bytes.Buffer
	rows := s.TableII(&buf)
	if len(rows) != 16 {
		t.Fatalf("want 16 rows, got %d", len(rows))
	}
	byName := map[string]TableIIRow{}
	for _, r := range rows {
		byName[r.Dataset.Name()] = r
	}
	// Emerging and disappearing are sign flips: m+ and m− swap.
	em := byName["DBLP/Weighted/Emerging"].Stats
	di := byName["DBLP/Weighted/Disappearing"].Stats
	if em.MPos != di.MNeg || em.MNeg != di.MPos {
		t.Errorf("emerging/disappearing m+/m− must swap: %+v vs %+v", em, di)
	}
	// Actor has no negative edges (Table II shape).
	if byName["Actor/Weighted/—"].Stats.MNeg != 0 {
		t.Error("Actor difference graph must be all-positive")
	}
	// Actor Discrete caps weights at 10.
	if byName["Actor/Discrete/—"].Stats.MaxW > 10 {
		t.Error("Actor Discrete max weight must be ≤ 10")
	}
	// Discrete DBLP weights in {−2,−1,1,2}.
	dd := byName["DBLP/Discrete/Emerging"].Stats
	if dd.MaxW > 2 || dd.MinW < -2 {
		t.Errorf("Discrete weights out of range: %+v", dd)
	}
	if !strings.Contains(buf.String(), "DBLP-C") {
		t.Error("rendered table must include DBLP-C rows")
	}
}

func TestTableIVShapes(t *testing.T) {
	s := quickSuite()
	var buf bytes.Buffer
	rows := s.TableIV(&buf)
	if len(rows) != 8 {
		t.Fatalf("want 8 rows (4 GDs × 2 measures), got %d", len(rows))
	}
	for _, r := range rows {
		if r.NumAuthors == 0 {
			t.Fatalf("%s/%s/%s: empty group", r.Setting, r.GDType, r.Measure)
		}
		if r.Measure == "Graph Affinity" {
			if !r.PositiveClique {
				t.Errorf("%s/%s: affinity DCS must be a positive clique", r.Setting, r.GDType)
			}
			if r.AffinityDiff <= 0 {
				t.Errorf("%s/%s: affinity diff %v must be positive on planted data",
					r.Setting, r.GDType, r.AffinityDiff)
			}
		} else {
			if r.AvgDegreeDiff <= 0 {
				t.Errorf("%s/%s: density %v must be positive", r.Setting, r.GDType, r.AvgDegreeDiff)
			}
			if r.ApproxRatio < 1 {
				t.Errorf("%s/%s: ratio %v must be ≥ 1", r.Setting, r.GDType, r.ApproxRatio)
			}
		}
	}
}

func TestTableVFindsPlantedTopics(t *testing.T) {
	s := quickSuite()
	var buf bytes.Buffer
	em, dis := s.TableV(&buf, 5)
	if len(em) == 0 || len(dis) == 0 {
		t.Fatal("no topics found")
	}
	kw := s.Keywords()
	emText := strings.Join(topicTexts(em), " | ")
	disText := strings.Join(topicTexts(dis), " | ")
	// The strongest planted emerging topic (social networks) must appear in
	// the top-5 emerging list, and association rules in the disappearing one.
	if !strings.Contains(emText, "social") || !strings.Contains(emText, "networks") {
		t.Errorf("emerging topics %q must contain the social-networks topic", emText)
	}
	if !strings.Contains(disText, "association") || !strings.Contains(disText, "rules") {
		t.Errorf("disappearing topics %q must contain association rules", disText)
	}
	// Evergreen topics must NOT appear as trends — the paper's key argument.
	if strings.Contains(emText, "time (") && strings.Contains(emText, "series (") {
		t.Errorf("evergreen topic time-series must not be an emerging trend: %q", emText)
	}
	_ = kw
}

func topicTexts(rows []TopicRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Keywords
	}
	return out
}

func TestTableVIFindsEvergreenTopics(t *testing.T) {
	s := quickSuite()
	era1, era2 := s.TableVI(nil, 5)
	if len(era1) == 0 || len(era2) == 0 {
		t.Fatal("no single-era topics found")
	}
	// "time series" is a top topic of BOTH eras (it is the most popular topic
	// in era 1 and still hot in era 2) — single-graph mining cannot tell it
	// apart from a trend.
	t1 := strings.Join(topicTexts(era1), " | ")
	t2 := strings.Join(topicTexts(era2), " | ")
	if !strings.Contains(t1, "time") || !strings.Contains(t1, "series") {
		t.Errorf("era-1 top topics %q should include time series", t1)
	}
	if !strings.Contains(t2, "time") || !strings.Contains(t2, "series") {
		t.Errorf("era-2 top topics %q should include time series", t2)
	}
}

func TestTableVIIIAndIXShapes(t *testing.T) {
	s := quickSuite()
	rows8 := s.TableVIII(nil)
	rows9 := s.TableIX(nil)
	if len(rows8) != 4 || len(rows9) != 4 {
		t.Fatalf("want 4 rows each, got %d and %d", len(rows8), len(rows9))
	}
	// Shape of the paper's comparison: EgoScan subgraphs are bigger than DCS
	// groups, and EgoScan wins on total weight.
	ad := s.TableIV(nil)
	for i, r8 := range rows8 {
		adSize := ad[2*i].NumAuthors // average-degree row for the same GD
		if r8.NumAuthors < adSize {
			t.Errorf("row %d: EgoScan group (%d) should be at least as large as the DCS group (%d)",
				i, r8.NumAuthors, adSize)
		}
	}
	for i, r9 := range rows9 {
		if r9.EgoScan+1e-9 < r9.DCSGreedy || r9.EgoScan+1e-9 < r9.NewSEA {
			t.Errorf("row %d: EgoScan must dominate on total weight: %+v", i, r9)
		}
		if r9.NewSEA > r9.DCSGreedy+1e-9 {
			t.Errorf("row %d: NewSEA support weight should not exceed DCSGreedy's: %+v", i, r9)
		}
	}
}

func TestTableXandXIShapes(t *testing.T) {
	s := quickSuite()
	rows := s.TableX(nil)
	if len(rows) != 2 {
		t.Fatal("Table X needs consistent + conflicting rows")
	}
	ga := s.TableXI(nil)
	for i, r := range rows {
		if len(r.Full.S) == 0 || r.Full.Density <= 0 {
			t.Errorf("row %d: degenerate DCSAD result %+v", i, r.Full)
		}
		// The paper's observation: average-degree DCS on Wiki are much larger
		// than affinity DCS.
		if len(r.Full.S) < len(ga[i].Result.S) {
			t.Errorf("row %d: DCSAD group (%d) should be at least as large as DCSGA (%d)",
				i, len(r.Full.S), len(ga[i].Result.S))
		}
	}
	for i, r := range ga {
		if !r.Result.PositiveClique {
			t.Errorf("Table XI row %d must be a positive clique", i)
		}
	}
}

func TestTableXIIandXIIIShapes(t *testing.T) {
	s := quickSuite()
	rows := s.TableXII(nil)
	if len(rows) != 4 {
		t.Fatal("Table XII needs 4 rows")
	}
	for i, r := range rows {
		if r.Full.Density < r.GDOnly.Density-1e-9 || r.Full.Density < r.GDPlus.Density-1e-9 {
			t.Errorf("row %d: DCSGreedy must dominate single-candidate greedy", i)
		}
	}
	ga := s.TableXIII(nil)
	if len(ga) != 4 {
		t.Fatal("Table XIII needs 4 rows")
	}
	// Movie: Interest−Social direction denser than Social−Interest (the
	// paper's alignment finding), under the average-degree measure.
	if rows[0].Full.Density <= rows[1].Full.Density {
		t.Logf("note: movie Interest−Social (%v) vs Social−Interest (%v) — paper expects the former denser",
			rows[0].Full.Density, rows[1].Full.Density)
	}
}

func TestTableXIVShapes(t *testing.T) {
	s := quickSuite()
	rows := s.TableXIV(nil)
	if len(rows) != 4 {
		t.Fatal("Table XIV needs 4 rows")
	}
	// DBLP-C Weighted: the planted 400-weight edge dominates → 2-vertex DCS
	// with affinity ≈ 200 (the paper's exact shape).
	r := rows[0]
	if len(r.Result.S) != 2 {
		t.Errorf("DBLP-C Weighted DCS should be the heavy pair, got |S|=%d", len(r.Result.S))
	}
	if r.Result.Affinity < 150 {
		t.Errorf("DBLP-C Weighted affinity = %v, want ≈ 200", r.Result.Affinity)
	}
	// Discrete setting must produce a larger, lower-affinity group.
	if len(rows[1].Result.S) <= len(rows[0].Result.S) {
		t.Errorf("Discrete DCS (%d) should be larger than Weighted (%d)",
			len(rows[1].Result.S), len(rows[0].Result.S))
	}
}

func TestFig2Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 sweep is slow")
	}
	pts := fig2Sweep()
	if len(pts) < 3 {
		t.Fatal("need at least 3 sweep points")
	}
	for i, p := range pts {
		if p.SpeedUp <= 0 {
			t.Errorf("point %d: speedup %v must be positive", i, p.SpeedUp)
		}
		if p.ErrorRate < 0 {
			t.Errorf("point %d: negative error rate", i)
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	s := quickSuite()
	series := s.Fig3(nil, 2, 2)
	if len(series) != 4 {
		t.Fatal("Fig 3 needs 4 series")
	}
	total := 0
	for _, sr := range series {
		for _, c := range sr.Counts {
			total += c
		}
	}
	if total == 0 {
		t.Fatal("no cliques counted in any series")
	}
}

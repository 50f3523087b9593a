package topics

import (
	"slices"
	"strings"
	"testing"
)

var era1 = []string{
	"Mining Association Rules in Large Databases",
	"Fast Algorithms for Mining Association Rules",
	"Association Rules Mining with Constraints",
	"Knowledge Discovery in Time Series Databases",
	"Indexing Time Series Under Scaling",
	"Support Vector Machines for Text",
	"Training Support Vector Machines",
	"Decision Trees for Knowledge Discovery",
	"Feature Selection for Classification",
	"Time Series Motif Mining",
}

var era2 = []string{
	"Community Detection in Social Networks",
	"Influence Maximization in Social Networks",
	"Link Prediction in Social Networks",
	"Matrix Factorization for Recommendation",
	"Scalable Matrix Factorization",
	"Deep Learning for Time Series",
	"Time Series Classification Revisited",
	"Feature Selection for High Dimensions",
	"Social Networks and Matrix Factorization",
	"Large Scale Matrix Factorization",
}

func TestTokenize(t *testing.T) {
	got := Tokenize("The Large-Scale Mining of GRAPHS, via new methods!")
	want := []string{"large", "scale", "mining", "graphs"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", got, want)
		}
	}
}

func TestTokenizeMinLenAndStopwords(t *testing.T) {
	got := Tokenize("a big x graph towards mining z2")
	if want := []string{"big", "graph", "mining", "z2"}; !slices.Equal(got, want) {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
}

func TestAssociationWeights(t *testing.T) {
	m := Build([]string{"alpha beta", "alpha beta", "alpha gamma", "delta epsilon"}, nil, Options{})
	a, b := m.Vocab["alpha"], m.Vocab["beta"]
	// alpha+beta co-occur in 2 of 4 docs → weight 50.
	if w := m.G1.Weight(a, b); w != 50 {
		t.Fatalf("weight(alpha,beta) = %v, want 50", w)
	}
	g := m.Vocab["gamma"]
	if w := m.G1.Weight(a, g); w != 25 {
		t.Fatalf("weight(alpha,gamma) = %v, want 25", w)
	}
	if m.G2.M() != 0 {
		t.Fatal("empty era-2 corpus must give an edgeless graph")
	}
}

func TestSharedVocabulary(t *testing.T) {
	m := Build(era1, era2, Options{})
	if m.G1.N() != m.G2.N() {
		t.Fatal("graphs must share the vertex set")
	}
	if len(m.Words) != m.G1.N() {
		t.Fatal("words and vertices must align")
	}
	for w, id := range m.Vocab {
		if m.Words[id] != w {
			t.Fatalf("vocab mismatch at %q", w)
		}
	}
}

func TestEmergingAndDisappearing(t *testing.T) {
	m := Build(era1, era2, Options{})
	em := m.Emerging(3)
	if len(em) == 0 {
		t.Fatal("no emerging topics")
	}
	joined := ""
	for _, tp := range em {
		joined += " " + strings.Join(tp.Keywords, " ")
	}
	if !strings.Contains(joined, "social") || !strings.Contains(joined, "networks") {
		t.Errorf("emerging topics %q must contain social networks", joined)
	}
	dis := m.Disappearing(3)
	joined = ""
	for _, tp := range dis {
		joined += " " + strings.Join(tp.Keywords, " ")
	}
	if !strings.Contains(joined, "association") || !strings.Contains(joined, "rules") {
		t.Errorf("disappearing topics %q must contain association rules", joined)
	}
}

func TestTopOfEraSingleGraphBaseline(t *testing.T) {
	m := Build(era1, era2, Options{})
	top1 := m.TopOfEra(1, 5)
	top2 := m.TopOfEra(2, 5)
	if len(top1) == 0 || len(top2) == 0 {
		t.Fatal("single-era mining found nothing")
	}
	// "time series" appears in both corpora and should rank in both eras —
	// the paper's argument that single-graph mining cannot detect trends.
	has := func(ts []Topic, a, b string) bool {
		for _, tp := range ts {
			s := strings.Join(tp.Keywords, " ")
			if strings.Contains(s, a) && strings.Contains(s, b) {
				return true
			}
		}
		return false
	}
	if !has(top1, "time", "series") || !has(top2, "time", "series") {
		t.Error("time series must be a top topic of both eras")
	}
	// But NOT an emerging trend.
	if has(m.Emerging(5), "time", "series") {
		t.Error("time series must not be an emerging trend")
	}
}

func TestTopicString(t *testing.T) {
	tp := Topic{Keywords: []string{"social", "networks"}, Weights: []float64{0.5, 0.5}}
	if got := tp.String(); got != "social (0.5), networks (0.5)" {
		t.Fatalf("String() = %q", got)
	}
	tp2 := Topic{Keywords: []string{"x"}, Weights: []float64{1}}
	if got := tp2.String(); got != "x (1)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestMinDocFreq(t *testing.T) {
	m := Build([]string{"rare word", "common pair", "common pair"}, nil, Options{MinDocFreq: 2})
	// "rare" and "word" appear once → dropped from doc sets → no edges.
	r, ok := m.Vocab["rare"]
	if !ok {
		t.Fatal("vocabulary still contains all words")
	}
	if m.G1.OutDegree(r) != 0 {
		t.Fatal("rare keywords must not produce edges")
	}
	c, p := m.Vocab["common"], m.Vocab["pair"]
	if m.G1.Weight(c, p) == 0 {
		t.Fatal("frequent pair must keep its edge")
	}
}

// Package topics implements the text pipeline of Section VI-C: from two
// corpora of document titles (two eras) to keyword-association graphs to
// emerging/disappearing topic mining.
//
// Following Angel et al. (PVLDB'12), which the paper adopts: documents are
// tokenized, stop words removed, and the association strength of a keyword
// pair is 100 × the fraction of documents containing both keywords. The two
// association graphs share one vocabulary, so their difference graph is well
// defined and the DCS algorithms apply directly.
package topics

import (
	"sort"
	"strconv"
	"strings"
	"unicode"

	"github.com/dcslib/dcs/internal/core"
	"github.com/dcslib/dcs/internal/graph"
	"github.com/dcslib/dcs/internal/runstate"
)

// DefaultStopwords is the compact English stopword list Tokenize drops,
// adequate for titles.
var DefaultStopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "has": true, "have": true,
	"in": true, "is": true, "it": true, "its": true, "of": true, "on": true,
	"or": true, "that": true, "the": true, "to": true, "toward": true,
	"towards": true, "under": true, "using": true, "via": true, "with": true,
	"we": true, "our": true, "your": true, "their": true, "can": true,
	"do": true, "does": true, "how": true, "what": true, "when": true,
	"where": true, "which": true, "who": true, "why": true, "new": true,
	"based": true, "approach": true, "method": true, "methods": true,
}

// minWordLen is the shortest token Tokenize keeps.
const minWordLen = 2

// Options configures the pipeline.
type Options struct {
	// MinDocFreq drops keywords appearing in fewer documents (per corpus
	// union); 0 and 1 keep everything.
	MinDocFreq int
}

// Tokenize lowercases, splits on non-letter/digit runs, and drops
// DefaultStopwords and tokens shorter than two bytes.
func Tokenize(title string) []string {
	fields := strings.FieldsFunc(strings.ToLower(title), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := fields[:0]
	for _, w := range fields {
		if len(w) >= minWordLen && !DefaultStopwords[w] {
			out = append(out, w)
		}
	}
	return out
}

// Corpus is a tokenized document collection over a shared vocabulary.
type Corpus struct {
	NumDocs int
	docSets []map[int]bool // per document: distinct keyword ids
}

// Model holds the shared vocabulary and the per-era association graphs.
type Model struct {
	Vocab  map[string]int // keyword → vertex id
	Words  []string       // vertex id → keyword
	G1, G2 *graph.Graph
}

// Build constructs the model from two corpora of titles.
func Build(era1, era2 []string, opt Options) *Model {
	vocab := make(map[string]int)
	var words []string
	docFreq := make(map[int]int)
	tokenizeAll := func(titles []string) []map[int]bool {
		sets := make([]map[int]bool, len(titles))
		for i, t := range titles {
			set := make(map[int]bool)
			for _, w := range Tokenize(t) {
				id, ok := vocab[w]
				if !ok {
					id = len(words)
					vocab[w] = id
					words = append(words, w)
				}
				set[id] = true
			}
			sets[i] = set
			for id := range set {
				docFreq[id]++
			}
		}
		return sets
	}
	s1 := tokenizeAll(era1)
	s2 := tokenizeAll(era2)

	// Apply MinDocFreq by dropping rare keywords from the doc sets (vocab ids
	// stay stable so both graphs share the vertex set).
	if opt.MinDocFreq > 1 {
		for _, sets := range [][]map[int]bool{s1, s2} {
			for _, set := range sets {
				for id := range set {
					if docFreq[id] < opt.MinDocFreq {
						delete(set, id)
					}
				}
			}
		}
	}
	m := &Model{Vocab: vocab, Words: words}
	m.G1 = association(len(words), s1)
	m.G2 = association(len(words), s2)
	return m
}

// association builds one era's keyword graph: weight(u,v) = 100 × (# docs
// containing both u and v) / (# docs).
func association(n int, docs []map[int]bool) *graph.Graph {
	pair := make(map[[2]int]int)
	for _, set := range docs {
		ids := make([]int, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				pair[[2]int{ids[i], ids[j]}]++
			}
		}
	}
	b := graph.NewBuilder(n)
	if len(docs) == 0 {
		return b.Build()
	}
	for k, c := range pair {
		b.AddEdge(k[0], k[1], 100*float64(c)/float64(len(docs)))
	}
	return b.Build()
}

// Topic is a mined keyword group with per-keyword simplex weights.
type Topic struct {
	Keywords []string
	Weights  []float64
	Affinity float64
}

// Emerging returns the top-k emerging topics (denser in era 2).
func (m *Model) Emerging(k int) []Topic {
	return m.top(graph.Difference(m.G1, m.G2), k)
}

// Disappearing returns the top-k disappearing topics (denser in era 1).
func (m *Model) Disappearing(k int) []Topic {
	return m.top(graph.Difference(m.G2, m.G1), k)
}

// TopOfEra returns the top-k topics of a single era (1 or 2) — the
// single-graph baseline the paper's Table VI argues against for trend
// detection.
func (m *Model) TopOfEra(era, k int) []Topic {
	g := m.G1
	if era == 2 {
		g = m.G2
	}
	return m.top(g, k)
}

func (m *Model) top(gd *graph.Graph, k int) []Topic {
	cliques, _ := core.CollectCliques(runstate.New(nil), gd, core.GAOptions{})
	var out []Topic
	for i, c := range cliques {
		if i >= k {
			break
		}
		t := Topic{Affinity: c.Affinity}
		for _, v := range c.S {
			t.Keywords = append(t.Keywords, m.Words[v])
			t.Weights = append(t.Weights, c.X.Get(v))
		}
		out = append(out, t)
	}
	return out
}

// String renders a topic like "social (0.50), networks (0.50)".
func (t Topic) String() string {
	var sb strings.Builder
	for i, w := range t.Keywords {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(w)
		sb.WriteString(" (")
		sb.WriteString(trimFloat(t.Weights[i]))
		sb.WriteString(")")
	}
	return sb.String()
}

func trimFloat(f float64) string {
	s := strings.TrimRight(strconv.FormatFloat(f, 'f', 2, 64), "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

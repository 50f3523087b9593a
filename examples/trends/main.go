// Trends: detect emerging and disappearing research topics from paper titles
// (the application of Section VI-C) with nothing but the public API.
//
// The example embeds two tiny corpora of (synthetic) paper titles — one per
// era — builds a keyword association graph per era exactly the way the paper
// does (edge weight = 100 × fraction of titles containing both keywords), and
// mines the top contrast cliques in both directions.
//
//	go run ./examples/trends
package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	dcs "github.com/dcslib/dcs"
)

// Titles published in the early era (1998–2007 in the paper).
var era1Titles = []string{
	"mining association rules in large databases",
	"fast algorithms for mining association rules",
	"association rules mining with inductive constraints",
	"knowledge discovery in time series databases",
	"indexing time series under scaling",
	"efficient time series matching by wavelets",
	"support vector machines for text classification",
	"training support vector machines in high dimensions",
	"decision trees for knowledge discovery",
	"feature selection for support vector machines",
	"scalable knowledge discovery from web logs",
	"mining time series motifs",
	"intrusion detection with decision trees",
	"intrusion detection using association rules",
	"nearest neighbor queries in time series",
}

// Titles published in the recent era (2008–2017 in the paper).
var era2Titles = []string{
	"community detection in social networks",
	"influence maximization in social networks",
	"link prediction in large social networks",
	"matrix factorization for recommender systems",
	"scalable matrix factorization with distributed updates",
	"nonnegative matrix factorization for clustering",
	"large scale learning on social networks",
	"large scale matrix factorization",
	"semi supervised learning on graphs",
	"semi supervised feature selection at large scale",
	"deep learning for time series forecasting",
	"time series classification revisited",
	"feature selection for high dimensional data",
	"social networks and matrix factorization for recommendation",
	"large scale semi supervised learning",
}

var stopwords = map[string]bool{
	"in": true, "for": true, "the": true, "of": true, "with": true, "and": true,
	"on": true, "by": true, "at": true, "from": true, "using": true, "under": true,
	"a": true, "an": true, "to": true,
}

// tokenize lowercases and strips stopwords.
func tokenize(title string) []string {
	var out []string
	for _, w := range strings.Fields(strings.ToLower(title)) {
		if !stopwords[w] {
			out = append(out, w)
		}
	}
	return out
}

// buildAssociation builds the keyword association graph of one corpus over a
// fixed vocabulary: edge weight = 100 × (titles containing both) / titles.
func buildAssociation(titles []string, vocab map[string]int) *dcs.Graph {
	b := dcs.NewBuilder(len(vocab))
	pair := make(map[[2]int]int)
	for _, t := range titles {
		words := tokenize(t)
		seen := map[int]bool{}
		for _, w := range words {
			seen[vocab[w]] = true
		}
		var ids []int
		for id := range seen {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				pair[[2]int{ids[i], ids[j]}]++
			}
		}
	}
	for k, c := range pair {
		b.AddEdge(k[0], k[1], 100*float64(c)/float64(len(titles)))
	}
	return b.Build()
}

func main() {
	// Shared vocabulary over both corpora.
	vocab := make(map[string]int)
	var words []string
	for _, t := range append(append([]string{}, era1Titles...), era2Titles...) {
		for _, w := range tokenize(t) {
			if _, ok := vocab[w]; !ok {
				vocab[w] = len(words)
				words = append(words, w)
			}
		}
	}
	g1 := buildAssociation(era1Titles, vocab)
	g2 := buildAssociation(era2Titles, vocab)
	fmt.Printf("vocabulary: %d keywords; associations: era1 %d, era2 %d\n\n",
		len(words), g1.M(), g2.M())

	show := func(dir string, cliques []dcs.ContrastClique) {
		fmt.Printf("top %s topics:\n", dir)
		for i, c := range cliques {
			if i >= 5 {
				break
			}
			fmt.Printf("  #%d (f=%.2f) {", i+1, c.Affinity)
			for j, v := range c.S {
				if j > 0 {
					fmt.Print(", ")
				}
				fmt.Printf("%s (%.2g)", words[v], c.X.Get(v))
			}
			fmt.Println("}")
		}
		fmt.Println()
	}
	ctx := context.Background()
	emerging, _ := dcs.TopContrastCliquesOnCtx(ctx, dcs.Difference(g1, g2), nil)
	disappearing, _ := dcs.TopContrastCliquesOnCtx(ctx, dcs.Difference(g2, g1), nil)
	show("emerging", emerging)
	show("disappearing", disappearing)
}

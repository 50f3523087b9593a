// Package topics mines emerging and disappearing topics from two corpora of
// document titles, the application of Section VI-C of "Mining Density
// Contrast Subgraphs" (ICDE 2018): titles are tokenized into keywords, each
// era becomes a keyword-association graph (edge weight = 100 × the fraction
// of titles containing both keywords, following Angel et al. PVLDB'12), and
// the density-contrast cliques of the two graphs are the trends.
//
//	m := topics.Build(titles1998to2007, titles2008to2017, topics.Options{})
//	for _, t := range m.Emerging(5) {
//	    fmt.Println(t) // e.g. "social (0.5), networks (0.5)"
//	}
package topics

import (
	itopics "github.com/dcslib/dcs/internal/topics"
)

// Options configures the pipeline: the document-frequency cut-off.
type Options = itopics.Options

// Model holds the shared vocabulary and the per-era association graphs.
type Model = itopics.Model

// Topic is a mined keyword group with per-keyword simplex weights.
type Topic = itopics.Topic

// DefaultStopwords is the built-in English stopword list.
var DefaultStopwords = itopics.DefaultStopwords

// Build constructs the model from two corpora of titles (era 1, era 2).
func Build(era1, era2 []string, opt Options) *Model {
	return itopics.Build(era1, era2, opt)
}

// Tokenize lowercases, splits, and strips stopwords/short tokens.
func Tokenize(title string) []string {
	return itopics.Tokenize(title)
}

// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section VI and Appendix B) on the
// synthetic datasets of internal/datagen.
//
// Each exported method of Suite corresponds to one table or figure, returns
// the structured rows/series, and renders the same layout the paper prints.
// Absolute numbers differ from the paper (synthetic data, different
// hardware); EXPERIMENTS.md records the shape comparison.
package bench

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/graph"
)

// Suite runs the paper's experiments. The zero value uses full laptop-scale
// datasets; set Quick for CI-sized runs (roughly 4× smaller, same shapes).
type Suite struct {
	Quick bool
	Seed  int64

	once sync.Once
	data map[string]*Dataset

	coauthor *datagen.Coauthor
	keywords *datagen.Keywords
	wiki     *datagen.Wiki
	movie    *datagen.Douban
	book     *datagen.Douban
	actor    *datagen.Actor
	coauthC  *datagen.Coauthor
}

// Dataset is one difference graph of Table II with its provenance.
type Dataset struct {
	Data    string // e.g. "DBLP"
	Setting string // "Weighted", "Discrete" or "—"
	GDType  string // e.g. "Emerging", "Consistent", "Interest−Social", "—"
	GD      *graph.Graph
	Labels  []string
}

// Name returns the Table II row identifier.
func (d *Dataset) Name() string {
	return fmt.Sprintf("%s/%s/%s", d.Data, d.Setting, d.GDType)
}

func (s *Suite) scale(n int) int {
	if s.Quick {
		n /= 4
		if n < 50 {
			n = 50
		}
	}
	return n
}

func (s *Suite) seed() int64 {
	if s.Seed == 0 {
		return 20180618 // paper's publication era; any fixed value works
	}
	return s.Seed
}

// Datasets lazily builds every difference graph of Table II, in the paper's
// row order.
func (s *Suite) Datasets() []*Dataset {
	s.once.Do(s.build)
	order := []string{
		"DBLP/Weighted/Emerging",
		"DBLP/Weighted/Disappearing",
		"DBLP/Discrete/Emerging",
		"DBLP/Discrete/Disappearing",
		"DM/—/Emerging",
		"DM/—/Disappearing",
		"Wiki/—/Consistent",
		"Wiki/—/Conflicting",
		"Movie/—/Interest−Social",
		"Movie/—/Social−Interest",
		"Book/—/Interest−Social",
		"Book/—/Social−Interest",
		"DBLP-C/Weighted/—",
		"DBLP-C/Discrete/—",
		"Actor/Weighted/—",
		"Actor/Discrete/—",
	}
	out := make([]*Dataset, 0, len(order))
	for _, k := range order {
		out = append(out, s.data[k])
	}
	return out
}

// Get returns one dataset by its Table II identifier.
func (s *Suite) Get(name string) *Dataset {
	s.once.Do(s.build)
	d, ok := s.data[name]
	if !ok {
		panic("bench: unknown dataset " + name)
	}
	return d
}

// Coauthor returns the underlying DBLP-like snapshot pair (for the tables
// that need G1/G2 rather than GD).
func (s *Suite) Coauthor() *datagen.Coauthor {
	s.once.Do(s.build)
	return s.coauthor
}

// Keywords returns the DM-like keyword dataset.
func (s *Suite) Keywords() *datagen.Keywords {
	s.once.Do(s.build)
	return s.keywords
}

// Douban returns the movie- and book-flavoured Douban datasets.
func (s *Suite) Douban() (movie, book *datagen.Douban) {
	s.once.Do(s.build)
	return s.movie, s.book
}

func (s *Suite) build() {
	seed := s.seed()
	s.data = make(map[string]*Dataset)

	s.coauthor = datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed, N: s.scale(2000)})
	ca := s.coauthor
	s.add("DBLP", "Weighted", "Emerging", ca.EmergingGD(), ca.Labels)
	s.add("DBLP", "Weighted", "Disappearing", ca.DisappearingGD(), ca.Labels)
	s.add("DBLP", "Discrete", "Emerging", ca.EmergingDiscreteGD(), ca.Labels)
	s.add("DBLP", "Discrete", "Disappearing", ca.DisappearingDiscreteGD(), ca.Labels)

	s.keywords = datagen.KeywordGraphs(datagen.KeywordConfig{Seed: seed + 1, Extra: s.scale(600)})
	kw := s.keywords
	s.add("DM", "—", "Emerging", kw.EmergingGD(), kw.Labels)
	s.add("DM", "—", "Disappearing", kw.DisappearingGD(), kw.Labels)

	s.wiki = datagen.WikiGraphs(datagen.WikiConfig{Seed: seed + 2, N: s.scale(3000)})
	s.add("Wiki", "—", "Consistent", s.wiki.ConsistentGD(), s.wiki.Labels)
	s.add("Wiki", "—", "Conflicting", s.wiki.ConflictingGD(), s.wiki.Labels)

	mcfg := datagen.MovieConfig(seed + 3)
	mcfg.N = s.scale(1500)
	s.movie = datagen.DoubanGraphs(mcfg)
	s.add("Movie", "—", "Interest−Social", s.movie.InterestMinusSocialGD(), s.movie.Labels)
	s.add("Movie", "—", "Social−Interest", s.movie.SocialMinusInterestGD(), s.movie.Labels)

	bcfg := datagen.BookConfig(seed + 4)
	bcfg.N = s.scale(1500)
	s.book = datagen.DoubanGraphs(bcfg)
	s.add("Book", "—", "Interest−Social", s.book.InterestMinusSocialGD(), s.book.Labels)
	s.add("Book", "—", "Social−Interest", s.book.SocialMinusInterestGD(), s.book.Labels)

	s.coauthC = datagen.CoauthorPair(datagen.CoauthorConfig{Seed: seed + 5, N: s.scale(4000), BigN: true})
	s.add("DBLP-C", "Weighted", "—", s.coauthC.EmergingGD(), s.coauthC.Labels)
	s.add("DBLP-C", "Discrete", "—", s.coauthC.EmergingDiscreteGD(), s.coauthC.Labels)

	s.actor = datagen.ActorGraph(datagen.ActorConfig{Seed: seed + 6, N: s.scale(3000)})
	s.add("Actor", "Weighted", "—", s.actor.GD, s.actor.Labels)
	s.add("Actor", "Discrete", "—", s.actor.GD.CapWeights(10), s.actor.Labels)
}

func (s *Suite) add(data, setting, gdType string, gd *graph.Graph, labels []string) {
	d := &Dataset{Data: data, Setting: setting, GDType: gdType, GD: gd, Labels: labels}
	s.data[d.Name()] = d
}

// timed measures fn's wall-clock duration.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// newTabWriter returns a tabwriter suitable for the table renderings.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// labelSet formats a vertex set with its labels (up to limit entries).
func labelSet(labels []string, S []int, limit int) string {
	out := ""
	for i, v := range S {
		if limit > 0 && i >= limit {
			out += fmt.Sprintf(" …(+%d)", len(S)-limit)
			break
		}
		if i > 0 {
			out += " "
		}
		if v < len(labels) {
			out += labels[v]
		} else {
			out += fmt.Sprintf("v%d", v)
		}
	}
	return out
}

// yesNo renders booleans the way the paper's tables do.
func yesNo(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}

// Command dcsgen writes the synthetic datasets of this repository to disk as
// TSV edge lists plus label files, for use with dcsfind or external tools.
//
// Usage:
//
//	dcsgen -out DIR [-seed N] [-scale 1] [-binary] [dataset ...]
//
// Datasets: dblp, dm, wiki, movie, book, dblpc, actor (default: all). Each
// dataset produces <name>-g1.tsv, <name>-g2.tsv and <name>-labels.txt
// (actor produces a single actor-gd.tsv). With -binary the graphs are
// written in the binary .dcsg format (v2) instead of TSV: an order of
// magnitude faster to load back through dcsd -load and dcsfind, and the
// page-aligned layout dcsd memory-maps and serves in place (see dcsd
// -memlimit). Files are streamed to disk row by row — the encoder never
// materializes a second copy of the CSR, so generating graphs much larger
// than memory headroom works.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/dcslib/dcs/internal/datagen"
	"github.com/dcslib/dcs/internal/dataio"
	"github.com/dcslib/dcs/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcsgen: ")
	out := flag.String("out", "", "output directory (required)")
	seed := flag.Int64("seed", 20180618, "generator seed")
	scale := flag.Float64("scale", 1, "size multiplier for all datasets")
	binary := flag.Bool("binary", false,
		"write graphs in the binary "+dataio.BinaryExt+" format (v2, streamed row-by-row) instead of TSV")
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	names := flag.Args()
	if len(names) == 0 {
		names = []string{"dblp", "dm", "wiki", "movie", "book", "dblpc", "actor"}
	}
	sz := func(n int) int {
		v := int(float64(n) * *scale)
		if v < 50 {
			v = 50
		}
		return v
	}
	gext := ".tsv"
	if *binary {
		gext = dataio.BinaryExt
	}
	// The binary path streams each row straight to the output file (the
	// encoder seeks back for the header afterwards): no second in-memory
	// copy of the CSR is built, however large the generated graph.
	writeGraph := func(path string, g *graph.Graph) error {
		if *binary {
			return dataio.WriteBinaryV2File(path, g)
		}
		return dataio.WriteGraphFile(path, g)
	}
	writePair := func(name string, g1, g2 *graph.Graph, labels []string) {
		must(writeGraph(filepath.Join(*out, name+"-g1"+gext), g1))
		must(writeGraph(filepath.Join(*out, name+"-g2"+gext), g2))
		must(dataio.WriteLabelsFile(filepath.Join(*out, name+"-labels.txt"), labels))
		fmt.Printf("%s: n=%d m1=%d m2=%d\n", name, g1.N(), g1.M(), g2.M())
	}
	for _, name := range names {
		switch name {
		case "dblp":
			d := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: *seed, N: sz(2000)})
			writePair("dblp", d.G1, d.G2, d.Labels)
		case "dm":
			d := datagen.KeywordGraphs(datagen.KeywordConfig{Seed: *seed + 1, Extra: sz(600)})
			writePair("dm", d.G1, d.G2, d.Labels)
		case "wiki":
			d := datagen.WikiGraphs(datagen.WikiConfig{Seed: *seed + 2, N: sz(3000)})
			writePair("wiki", d.G1, d.G2, d.Labels)
		case "movie":
			cfg := datagen.MovieConfig(*seed + 3)
			cfg.N = sz(1500)
			d := datagen.DoubanGraphs(cfg)
			writePair("movie", d.G1, d.G2, d.Labels)
		case "book":
			cfg := datagen.BookConfig(*seed + 4)
			cfg.N = sz(1500)
			d := datagen.DoubanGraphs(cfg)
			writePair("book", d.G1, d.G2, d.Labels)
		case "dblpc":
			d := datagen.CoauthorPair(datagen.CoauthorConfig{Seed: *seed + 5, N: sz(4000), BigN: true})
			writePair("dblpc", d.G1, d.G2, d.Labels)
		case "actor":
			d := datagen.ActorGraph(datagen.ActorConfig{Seed: *seed + 6, N: sz(3000)})
			must(writeGraph(filepath.Join(*out, "actor-gd"+gext), d.GD))
			must(dataio.WriteLabelsFile(filepath.Join(*out, "actor-labels.txt"), d.Labels))
			fmt.Printf("actor: n=%d m=%d\n", d.GD.N(), d.GD.M())
		default:
			log.Fatalf("unknown dataset %q", name)
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

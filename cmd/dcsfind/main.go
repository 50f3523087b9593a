// Command dcsfind mines the density contrast subgraph between two graphs
// stored as TSV edge lists (see internal/dataio for the format).
//
// Usage:
//
//	dcsfind -g1 old.tsv -g2 new.tsv [-measure ad|ga|weight] [-alpha 1]
//	        [-labels labels.txt] [-top K] [-parallelism 0] [-timeout 0]
//	        [-format auto]
//
// With -measure ga and -top K > 1, it prints the top-K contrast cliques
// instead of just the best one. -timeout bounds the solve: when it expires
// the best-so-far partial result is printed, marked "(interrupted)".
// -parallelism spreads one solve over that many worker goroutines
// (0 = sequential, -1 = GOMAXPROCS); the result is identical at every
// degree.
// -format defaults to auto: the input format follows each file's extension
// (.dcsg binary, .mtx/.mm MatrixMarket, .snap SNAP, anything else TSV);
// tsv, snap, mm and bin force one format for both files.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/internal/dataio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcsfind: ")
	g1Path := flag.String("g1", "", "edge list of the first (earlier/expected) graph")
	g2Path := flag.String("g2", "", "edge list of the second (later/observed) graph")
	measure := flag.String("measure", "ga", "density measure: ad (average degree), ga (graph affinity), weight (total weight)")
	alpha := flag.Float64("alpha", 1, "difference graph GD = G2 − alpha*G1")
	labelsPath := flag.String("labels", "", "optional label file (one label per vertex line)")
	top := flag.Int("top", 1, "with -measure ga: report the top K contrast cliques")
	parallelism := flag.Int("parallelism", 0,
		"worker goroutines inside the solve (0 = sequential, -1 = GOMAXPROCS)")
	format := flag.String("format", "auto",
		"input format: auto (by extension), tsv (native), snap, mm (MatrixMarket), bin (binary "+dataio.BinaryExt+")")
	timeout := flag.Duration("timeout", 0,
		"solve budget, e.g. 30s (0 = unlimited; on expiry the partial result is printed)")
	flag.Parse()
	if *g1Path == "" || *g2Path == "" {
		flag.Usage()
		os.Exit(2)
	}
	g1, err := readGraph(*g1Path, *format)
	if err != nil {
		log.Fatal(err)
	}
	g2, err := readGraph(*g2Path, *format)
	if err != nil {
		log.Fatal(err)
	}
	if g1.N() != g2.N() {
		log.Fatalf("graphs must share the vertex set: n1=%d n2=%d", g1.N(), g2.N())
	}
	var labels []string
	if *labelsPath != "" {
		labels, err = dataio.ReadLabelsFile(*labelsPath)
		if err != nil {
			log.Fatal(err)
		}
	}
	name := func(v int) string {
		if v < len(labels) {
			return labels[v]
		}
		return fmt.Sprintf("v%d", v)
	}
	gd := dcs.DifferenceAlpha(g1, g2, *alpha)
	st := gd.ComputeStats()
	fmt.Printf("difference graph: n=%d m+=%d m-=%d\n", st.N, st.MPos, st.MNeg)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// mark flags an interrupted (deadline-cut) result in the header line.
	mark := func(interrupted bool) string {
		if interrupted {
			return " (interrupted)"
		}
		return ""
	}
	par := *parallelism
	if par < 0 {
		par = runtime.GOMAXPROCS(0)
	}

	switch *measure {
	case "ad":
		res := dcs.FindAverageDegreeDCSOnParCtx(ctx, gd, par)
		fmt.Printf("DCS (average degree): |S|=%d density=%.6g ratio=%.3g clique=%v%s\n",
			len(res.S), res.Density, res.Ratio, res.PositiveClique, mark(res.Interrupted))
		for _, v := range res.S {
			fmt.Printf("  %s\n", name(v))
		}
	case "ga":
		if *top > 1 {
			cs, interrupted := dcs.TopContrastCliquesOnCtx(ctx, gd, &dcs.Options{Parallelism: par})
			if interrupted {
				fmt.Println("(interrupted: partial clique list)")
			}
			for i, c := range cs {
				if i >= *top {
					break
				}
				fmt.Printf("#%d affinity=%.6g:", i+1, c.Affinity)
				for _, v := range c.S {
					fmt.Printf(" %s(%.3g)", name(v), c.X.Get(v))
				}
				fmt.Println()
			}
			return
		}
		res := dcs.FindGraphAffinityDCSOnCtx(ctx, gd, nil)
		fmt.Printf("DCS (graph affinity): |S|=%d f=%.6g clique=%v%s\n",
			len(res.S), res.Affinity, res.PositiveClique, mark(res.Interrupted))
		for _, v := range res.S {
			fmt.Printf("  %s (%.4g)\n", name(v), res.X.Get(v))
		}
	case "weight":
		res := dcs.FindMaxTotalWeightSubgraphOnCtx(ctx, gd)
		fmt.Printf("max total weight subgraph: |S|=%d W=%.6g density=%.6g%s\n",
			len(res.S), res.TotalWeight, res.Density, mark(res.Interrupted))
		for _, v := range res.S {
			fmt.Printf("  %s\n", name(v))
		}
	default:
		log.Fatalf("unknown measure %q (want ad, ga or weight)", *measure)
	}
}

// readGraph loads a graph in the requested format. SNAP files remap vertex
// ids; for DCS the two inputs must use the same ids, so SNAP inputs are only
// safe when both files cover the same id universe in the same order — the
// native tsv format is preferred for graph pairs.
func readGraph(path, format string) (*dcs.Graph, error) {
	switch format {
	case "auto":
		return dataio.ReadGraphFileAuto(path)
	case "tsv":
		return dataio.ReadGraphFile(path)
	case "bin":
		return dataio.ReadBinaryFile(path)
	case "snap":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, _, err := dataio.ReadSNAP(f)
		return g, err
	case "mm":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataio.ReadMatrixMarket(f)
	default:
		return nil, fmt.Errorf("unknown format %q (want auto, tsv, snap, mm or bin)", format)
	}
}

// Command dcsbench regenerates the tables and figures of "Mining Density
// Contrast Subgraphs" (ICDE 2018) on the synthetic datasets of this
// repository.
//
// Usage:
//
//	dcsbench [-quick] [-seed N] [table2|table4|table5|table6|table7|fig2|
//	                             table8|table9|table10|table11|table12|
//	                             table13|fig3|table14|all]
//	dcsbench -json [-par | -watch] [-quick]
//
// With no experiment argument it runs everything except the slow timing
// experiments (table7, fig2); "all" includes those too. With -json it
// instead runs the core-substrate micro-benchmarks (the BenchmarkCore*
// suite) and emits one machine-readable JSON document — name, ns/op,
// allocs/op, bytes/op per benchmark — for the repository's BENCH_*.json
// perf trajectory. -json -par runs the parallel-solver sweep instead: each
// parallel workload at degrees 1/2/4/NumCPU (the BENCH_par.json payload),
// verifying on the way that every degree produced the identical result.
// -json -watch runs the streaming tick sweep (the BENCH_watch.json payload):
// graph sizes × delta sizes, the incremental watch engine versus a
// forced-scratch twin on identical delta streams, with report equivalence
// verified before any timing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/dcslib/dcs/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "use CI-scale datasets (~4x smaller)")
	seed := flag.Int64("seed", 0, "dataset seed (0 = default)")
	jsonOut := flag.Bool("json", false,
		"run the core micro-benchmarks and emit JSON (name, ns/op, allocs/op) instead of paper tables")
	parSweep := flag.Bool("par", false,
		"with -json: run the parallelism sweep (degrees 1/2/4/NumCPU) instead of the core suite")
	watchSweep := flag.Bool("watch", false,
		"with -json: run the streaming watch tick sweep (incremental vs scratch) instead of the core suite")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dcsbench [-quick] [-seed N] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "       dcsbench -json [-par | -watch] [-quick]\n\n")
		fmt.Fprintf(os.Stderr, "experiments: table2 table4 table5 table6 table7 fig2 table8 table9\n")
		fmt.Fprintf(os.Stderr, "             table10 table11 table12 table13 fig3 table14 all\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *jsonOut {
		if flag.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "dcsbench: -json takes no experiment arguments")
			os.Exit(2)
		}
		if *parSweep && *watchSweep {
			fmt.Fprintln(os.Stderr, "dcsbench: -par and -watch are mutually exclusive")
			os.Exit(2)
		}
		run := runCoreJSON
		if *parSweep {
			run = runParJSON
		}
		if *watchSweep {
			run = runWatchJSON
		}
		if err := run(os.Stdout, *quick, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "dcsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *parSweep || *watchSweep {
		fmt.Fprintln(os.Stderr, "dcsbench: -par and -watch require -json")
		os.Exit(2)
	}

	s := &bench.Suite{Quick: *quick, Seed: *seed}
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"table2", "table4", "table5", "table6", "table8",
			"table9", "table10", "table11", "table12", "table13", "fig3", "table14"}
	}
	if len(args) == 1 && args[0] == "all" {
		args = []string{"table2", "table4", "table5", "table6", "table7", "fig2",
			"table8", "table9", "table10", "table11", "table12", "table13", "fig3",
			"table14", "ablations"}
	}
	out := os.Stdout
	for _, a := range args {
		fmt.Fprintf(out, "\n== %s ==\n", strings.ToUpper(a))
		switch a {
		case "table2":
			s.TableII(out)
		case "table4":
			s.TableIV(out)
		case "table5":
			s.TableV(out, 5)
		case "table6":
			s.TableVI(out, 5)
		case "table7":
			s.TableVII(out)
		case "fig2":
			s.Fig2(out)
		case "table8":
			s.TableVIII(out)
		case "table9":
			s.TableIX(out)
		case "table10":
			s.TableX(out)
		case "table11":
			s.TableXI(out)
		case "table12":
			s.TableXII(out)
		case "table13":
			s.TableXIII(out)
		case "fig3":
			min1, min2 := 4, 4
			if *quick {
				min1, min2 = 2, 2
			}
			s.Fig3(out, min1, min2)
		case "table14":
			s.TableXIV(out)
		case "ablations":
			s.Ablations(out)
		default:
			fmt.Fprintf(os.Stderr, "dcsbench: unknown experiment %q\n", a)
			os.Exit(2)
		}
	}
}

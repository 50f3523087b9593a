// Command dcsvet is the repo's multichecker: it composes the internal/lint
// analyzers (loopcheck, guardedby, ctxflow) over the packages
// matched by its arguments, type-checking and analyzing every package
// afresh on each run, and exits non-zero on any finding.
//
// Usage:
//
//	go run ./cmd/dcsvet ./...        # what CI runs (required step)
//	go run ./cmd/dcsvet -json ./...  # machine-readable output
//	go run ./cmd/dcsvet -list        # analyzer names and docs
//
// Exit status: 0 clean, 1 findings, 2 load or type-check failure.
//
// Text output is one finding per line, `path:line:col: message [analyzer]`
// — the format .github/dcsvet-problem-matcher.json parses. JSON output
// (-json) follows the stable schema documented in CONTRIBUTING.md:
//
//	{
//	  "version": 3,
//	  "findings": [{"analyzer": "...", "file": "root/relative.go",
//	                "line": 1, "col": 1, "message": "..."}],
//	  "count": 0
//	}
//
// False positives are suppressed in place with a mandatory reason:
//
//	//lint:allow <analyzer> -- <reason>
//
// on or immediately above the flagged line, or in a function's doc comment
// to cover the whole function; an allow without a
// reason is itself a finding. See CONTRIBUTING.md for the enforced
// invariants.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/dcslib/dcs/internal/lint"
)

type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

type jsonOutput struct {
	Version  int           `json:"version"`
	Findings []jsonFinding `json:"findings"`
	Count    int           `json:"count"`
}

func main() {
	var (
		list    = flag.Bool("list", false, "list the analyzers and exit")
		jsonOut = flag.Bool("json", false, "emit the stable JSON schema instead of text")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dcsvet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	targets, err := lint.LoadPackages(cwd, flag.Args())
	if err != nil {
		fatal(err)
	}
	diags, err := lint.Analyze(targets, lint.All)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		out := jsonOutput{Version: 3, Findings: []jsonFinding{}, Count: len(diags)}
		for _, d := range diags {
			out.Findings = append(out.Findings, jsonFinding{
				Analyzer: d.Analyzer,
				File:     lint.RelFile(d, cwd),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dcsvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcsvet:", err)
	os.Exit(2)
}

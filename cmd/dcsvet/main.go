// Command dcsvet is the repo's multichecker: it composes the internal/lint
// analyzers (loopcheck, backedwrite, floatdet, guardedby, leakcheck,
// ctxflow, hotalloc) over the packages matched by its arguments, type-checking
// and analyzing every package afresh on each run, and exits non-zero on any
// failing finding.
//
// Usage:
//
//	go run ./cmd/dcsvet ./...                  # what CI runs (required step)
//	go run ./cmd/dcsvet -json ./...            # machine-readable output
//	go run ./cmd/dcsvet -severity error ./...  # error tier only
//	go run ./cmd/dcsvet -list                  # analyzer names, tiers, docs
//
// Exit status: 0 clean (baselined warn findings are clean), 1 failing
// findings, 2 load or type-check failure.
//
// Text output is one finding per line, `path:line:col: message [analyzer]`
// — the format .github/dcsvet-problem-matcher.json parses. JSON output
// (-json) follows the stable schema documented in CONTRIBUTING.md:
//
//	{
//	  "version": 2,
//	  "findings": [{"analyzer": "...", "severity": "error|warn",
//	                "file": "root/relative.go", "line": 1, "col": 1,
//	                "message": "...", "baselined": false}],
//	  "counts": {"error": 0, "warn": 0, "baselined": 0}
//	}
//
// Warn-tier findings already acknowledged in the baseline file (-baseline,
// default lint.baseline.json) do not fail the run; -writebaseline rewrites
// that file from the current warn findings (error findings can never be
// baselined). False positives are suppressed in place with a mandatory
// reason:
//
//	//lint:allow <analyzer> -- <reason>
//
// on or immediately above the flagged line, or in a function's doc comment
// to cover (and fact-annotate) the whole function; an allow without a
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
	Analyzer  string `json:"analyzer"`
	Severity  string `json:"severity"`
	File      string `json:"file"`
	Line      int    `json:"line"`
	Col       int    `json:"col"`
	Message   string `json:"message"`
	Baselined bool   `json:"baselined"`
}

type jsonOutput struct {
	Version  int           `json:"version"`
	Findings []jsonFinding `json:"findings"`
	Counts   struct {
		Error     int `json:"error"`
		Warn      int `json:"warn"`
		Baselined int `json:"baselined"`
	} `json:"counts"`
}

func main() {
	var (
		list          = flag.Bool("list", false, "list the analyzers and exit")
		jsonOut       = flag.Bool("json", false, "emit the stable JSON schema instead of text")
		severity      = flag.String("severity", "", "only report findings of this tier (error|warn); default both")
		baselinePath  = flag.String("baseline", "lint.baseline.json", "baseline file of acknowledged warn-tier findings")
		writeBaseline = flag.Bool("writebaseline", false, "rewrite the baseline from current warn-tier findings and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dcsvet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All {
			fmt.Fprintf(os.Stderr, "  %-12s [%s] %s\n", a.Name, a.Severity, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-12s %-5s %s\n", a.Name, a.Severity, a.Doc)
		}
		return
	}
	if *severity != "" && *severity != string(lint.SeverityError) && *severity != string(lint.SeverityWarn) {
		fmt.Fprintf(os.Stderr, "dcsvet: -severity must be %q or %q\n", lint.SeverityError, lint.SeverityWarn)
		os.Exit(2)
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

	if *severity != "" {
		kept := diags[:0:0]
		for _, d := range diags {
			if string(d.Severity) == *severity {
				kept = append(kept, d)
			}
		}
		diags = kept
	}

	if *writeBaseline {
		var warns []lint.Diagnostic
		for _, d := range diags {
			if d.Severity == lint.SeverityWarn {
				warns = append(warns, d)
			}
		}
		if err := lint.WriteBaseline(*baselinePath, warns, cwd); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dcsvet: wrote %d warn finding(s) to %s\n", len(warns), *baselinePath)
		return
	}

	base, err := lint.ReadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	failing, baselined := lint.ApplyBaseline(diags, base, cwd)

	if *jsonOut {
		out := jsonOutput{Version: 2, Findings: []jsonFinding{}}
		emit := func(d lint.Diagnostic, isBaselined bool) {
			out.Findings = append(out.Findings, jsonFinding{
				Analyzer:  d.Analyzer,
				Severity:  string(d.Severity),
				File:      lint.RelFile(d, cwd),
				Line:      d.Pos.Line,
				Col:       d.Pos.Column,
				Message:   d.Message,
				Baselined: isBaselined,
			})
			switch {
			case isBaselined:
				out.Counts.Baselined++
			case d.Severity == lint.SeverityWarn:
				out.Counts.Warn++
			default:
				out.Counts.Error++
			}
		}
		for _, d := range failing {
			emit(d, false)
		}
		for _, d := range baselined {
			emit(d, true)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range failing {
			fmt.Println(d)
		}
		if len(baselined) > 0 {
			fmt.Fprintf(os.Stderr, "dcsvet: %d baselined warn finding(s) suppressed (see %s)\n", len(baselined), *baselinePath)
		}
	}
	if len(failing) > 0 {
		fmt.Fprintf(os.Stderr, "dcsvet: %d finding(s)\n", len(failing))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcsvet:", err)
	os.Exit(2)
}

// Riflint is the multichecker for the repository's custom static
// analyzers (see internal/analysis): simdeterminism, simtime, obssafe,
// seedflow, hotpath, errorflow and ctxflow. It enforces the invariants
// that keep simulation runs bit-reproducible from their seed, the hot
// paths allocation-free, the degradation ladders honest about errors,
// and the observability plane trustworthy.
//
// Usage (CI runs exactly this):
//
//	go run ./cmd/riflint ./...
//	go run ./cmd/riflint -analyzers simtime,seedflow ./internal/ssd
//	go run ./cmd/riflint -json ./...   # machine-readable diagnostics
//
// Exit status: 0 when clean, 1 on a violation or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("riflint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("analyzers", "", "comma-separated analyzers to run (default: all)")
	list := fs.Bool("list", false, "list the available analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array instead of plain text")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: riflint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintln(stderr, "riflint:", err)
		return 1
	}

	pkgs, err := analysis.Load("", fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "riflint:", err)
		return 1
	}
	diags := analysis.Run(pkgs, analyzers)
	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "riflint:", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "riflint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonDiagnostic is the -json output shape: one object per finding,
// stable field names, position split out for machine consumption.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Category string `json:"category"`
	Message  string `json:"message"`
}

// writeJSON emits the diagnostics as one indented JSON array. An empty
// run prints [] so consumers can parse unconditionally.
func writeJSON(stdout *os.File, diags []analysis.Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Category: d.Category,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

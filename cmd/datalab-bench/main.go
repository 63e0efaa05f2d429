// Command datalab-bench regenerates every table and figure from the
// paper's evaluation section against the synthetic workloads and prints
// them. -only ledger emits the same report as the JSON document committed
// at internal/experiments/testdata/reproduction.json.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"datalab/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datalab-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "fraction of full workload sizes (0,1]")
	seed := fs.String("seed", "datalab-v1", "experiment seed")
	only := fs.String("only", "", "print a single experiment (table1, figure6, ...) or the JSON ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	valid := []string{"ledger"}
	for _, s := range (experiments.Report{}).Sections() {
		valid = append(valid, s.Name)
	}
	if *only != "" && !slices.Contains(valid, *only) {
		fmt.Fprintf(stderr, "datalab-bench: unknown experiment %q; -only takes one of %s\n", *only, strings.Join(valid, ", "))
		return 2
	}

	report, err := experiments.Run(*seed, *scale)
	if err != nil {
		fmt.Fprintln(stderr, "datalab-bench:", err)
		return 1
	}
	if *only == "ledger" {
		doc, err := report.Ledger()
		if err != nil {
			fmt.Fprintln(stderr, "datalab-bench:", err)
			return 1
		}
		stdout.Write(doc)
		return 0
	}
	for _, s := range report.Sections() {
		if *only == "" || *only == s.Name {
			fmt.Fprintf(stdout, "== %s ==\n%s\n", s.Title, s.Body)
		}
	}
	return 0
}

// Command patlint runs the PatLabor domain-invariant static-analysis
// suite over the module: exact int64 arithmetic in the exact packages,
// deterministic map-iteration output, no wall-clock/rand in algorithm
// packages, slices.SortFunc instead of reflection-based sort.Slice,
// context propagation discipline in the routing packages, and the
// interprocedural dataflow rules (cache-ownership aliasing, hidden
// cancellable work in loops, goroutine leaks, unbounded int64
// arithmetic).
//
// Usage:
//
//	go run ./cmd/patlint ./...                     # whole module (CI gate)
//	go run ./cmd/patlint internal/pareto           # one package
//	go run ./cmd/patlint -rules exact,goleak ./... # a rule subset
//	go run ./cmd/patlint -json ./...               # machine-readable output
//
// Exit status: 0 clean, 1 findings, 2 load/usage error. Findings print as
//
//	pkg/file.go:line: patlint(rule): message
//
// or, with -json, as a JSON array of {file, line, rule, msg} objects in
// the same stable (file, line, column, rule) order. Findings are
// suppressed with `//patlint:ignore <rule> <reason>` on (or above) the
// offending line, or in the doc comment of the declaration. See
// internal/patlint for the rule catalog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"patlabor/internal/patlint"
)

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array")
		rulesFlag = flag.String("rules", "", "comma-separated rules to run (default: all); known: "+strings.Join(patlint.Rules(), ","))
	)
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var rules []string
	if *rulesFlag != "" {
		rules = strings.Split(*rulesFlag, ",")
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	l, err := patlint.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	diags, err := patlint.CheckRules(l, patterns, rules)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := patlint.ToJSON(l.Root, diags)
		if out == nil {
			out = []patlint.JSONDiagnostic{}
		}
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.Format(l.Root))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "patlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

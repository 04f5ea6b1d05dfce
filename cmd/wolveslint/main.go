// Command wolveslint runs the repo's invariant analyzer suite — the
// machine-checked version of the seams PRs 3–6 established by hand:
//
//	vfsseam   storage I/O must route through the vfs fault seam
//	errcode   engine.Code ↔ HTTP mapping stays exhaustive
//	ctxpass   ctx threads through the library, no fresh Backgrounds
//	lockflow  mutex Lock pairs with (deferred) Unlock on every path
//	poolret   sync.Pool Get pairs with Put in the same function
//
// Usage:
//
//	go run ./cmd/wolveslint ./...
//	go run ./cmd/wolveslint -only vfsseam,errcode ./internal/storage/...
//
// Suppress a single finding with `//lint:allow <analyzer> <reason>` on
// or directly above the flagged line. A directive without a reason, or
// one naming an analyzer that ran but found nothing there, is reported
// as a "lint" finding. Exit status is 1 when any diagnostic survives, 2
// on loading errors — so CI can gate on it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wolves/internal/analysis"
	"wolves/internal/analysis/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	flags := flag.NewFlagSet("wolveslint", flag.ExitOnError)
	only := flags.String("only", "", "comma-separated analyzer subset (default: all)")
	list := flags.Bool("list", false, "list analyzers and exit")
	flags.Parse(args)

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		analyzers = analysis.ByName(strings.Split(*only, ","))
		if analyzers == nil {
			fmt.Fprintf(os.Stderr, "wolveslint: unknown analyzer in -only=%s\n", *only)
			return 2
		}
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wolveslint: %v\n", err)
		return 2
	}
	broken := false
	for _, p := range pkgs {
		for _, e := range p.Errors {
			broken = true
			fmt.Fprintf(os.Stderr, "wolveslint: %s: %v\n", p.PkgPath, e)
		}
	}
	if broken {
		return 2
	}

	findings, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wolveslint: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// Command dmacplint is dmacp's project linter: a multichecker over the
// internal/analysis suite that statically enforces the determinism and
// concurrency invariants the scheduler depends on. It is part of `make lint`
// (and therefore `make check`) and runs in CI; a non-empty finding list is a
// build failure.
//
// The five analyzers, each syntactic (one function at a time, no call
// graph):
//
//	maporder       no order-sensitive map iteration on the schedule-emission
//	               path (byte-identical schedules at any -j)
//	parownership   par.ForEach workers write only their own indexed slot or
//	               under a mutex (PR 5's ownership rule, mechanized)
//	seeddiscipline no global math/rand or wall-clock seeds outside tests
//	               (every stochastic harness replays from its recorded seed)
//	bytehops       unit consistency of bytes, hops and bytes×hops movement
//	ctxdiscipline  context.Context is always the first parameter and never
//	               a struct field (deadlines cannot outlive their call)
//
// Bugs that only show across calls (order leaked through a helper, a lock
// held across a fan-out, a published value mutated) are left to the dynamic
// gates: TestScheduleDigests, `make jobs-identical` and `make race`.
//
// Usage:
//
//	dmacplint [-analyzers maporder,bytehops] [-tests] [-json] [packages ...]
//
// With -json, findings are emitted as one indented JSON array on stdout
// ([] when clean) for CI tooling and editors; the array is byte-identical
// across runs on an unchanged tree. The exit code contract is unchanged.
//
// Packages default to ./... relative to the current directory. Deliberate
// exceptions are granted inline:
//
//	//lint:dmacp-allow <analyzer> <reason>
//
// on the offending line or the line directly above it; the reason is
// mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dmacp/internal/analysis"
)

func main() {
	var (
		sel     = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		tests   = flag.Bool("tests", false, "also analyze in-package _test.go files")
		docs    = flag.Bool("doc", false, "print each analyzer's documentation and exit")
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array on stdout")
	)
	flag.Parse()

	analyzers, err := analysis.ByName(*sel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmacplint:", err)
		os.Exit(2)
	}
	if *docs {
		for _, a := range analyzers {
			fmt.Printf("%s\n\t%s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(analysis.LoadConfig{Tests: *tests}, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmacplint:", err)
		os.Exit(2)
	}

	diags := analysis.Run(pkgs, analyzers)
	if *jsonOut {
		out, err := analysis.DiagnosticsJSON(diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmacplint:", err)
			os.Exit(2)
		}
		os.Stdout.Write(out)
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
			if d.Fix != nil {
				fmt.Printf("\tsuggested fix (%s):\n\t%s\n",
					d.Fix.Message, strings.ReplaceAll(d.Fix.Replacement, "\n", "\n\t"))
			}
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dmacplint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

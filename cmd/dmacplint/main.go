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
//	dmacplint [packages ...]
//
// Each finding prints as `file:line:col: analyzer: message`, followed by its
// suggested fix when the analyzer has one; a non-empty list exits 1.
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
	flag.Parse() // no flags: rejects a stray one with exit 2
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmacplint:", err)
		os.Exit(2)
	}

	diags := analysis.Run(pkgs, analysis.All())
	for _, d := range diags {
		fmt.Println(d)
		if d.Fix != nil {
			fmt.Printf("\tsuggested fix (%s):\n\t%s\n",
				d.Fix.Message, strings.ReplaceAll(d.Fix.Replacement, "\n", "\n\t"))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dmacplint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

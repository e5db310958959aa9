// Quickstart: optimize one loop nest with the NDP-aware computation
// partitioner and print what it decided and what it bought.
//
// The kernel is the paper's running example shape — a flat sum gathered from
// scattered home banks (Figure 3/9): instead of fetching B, C, D and E to
// the store node (13 links in the paper's example), partial sums are
// computed where the data lives and only partials travel.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dmacp/pipeline"
)

func main() {
	kernel := pipeline.Kernel{
		Name: "quickstart",
		// Strided subscripts make every operand a fresh cache line on a
		// different home bank — the data-intensive regime the paper targets.
		Statements: "A(8*i) = B(8*i)+C(16*i)+D(8*i+64)+E(24*i)",
		Iterations: 256,
		Sweeps:     3, // timestep loop: later sweeps find data on chip
		ArrayLen:   1 << 15,
	}

	report, err := pipeline.Run(kernel, pipeline.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("kernel:", kernel.Statements)
	fmt.Printf("chosen statement window:  %d\n", report.WindowSize)
	fmt.Printf("data movement reduction:  %.1f%%  (%d -> %d links)\n",
		report.MovementReduction()*100, report.DefaultMovement, report.OptimizedMovement)
	fmt.Printf("simulated speedup:        %.2fx  (%.0f -> %.0f cycles)\n",
		report.Speedup(), report.DefaultCycles, report.OptimizedCycles)
	fmt.Printf("energy savings:           %.1f%%\n", report.EnergySavings()*100)
	fmt.Printf("L1 hit rate:              %.1f%% -> %.1f%%\n",
		report.DefaultL1HitRate*100, report.OptimizedL1HitRate*100)
	fmt.Printf("parallel subcomputations: %.2f per statement\n", report.Parallelism)

	ok, err := pipeline.Verify(kernel, pipeline.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dependences preserved:   ", ok)

	// Peek at the generated per-node program (the paper's Figure 8 view):
	// a tiny run keeps the listing short.
	small := kernel
	small.Iterations, small.Sweeps = 4, 1
	code, err := pipeline.EmitCode(small, pipeline.DefaultConfig(), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngenerated per-node program (4-iteration excerpt):")
	fmt.Println(code)
}

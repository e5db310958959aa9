// Moldyn: a MiniMD-style molecular-dynamics force kernel whose neighbor
// lists create indirect accesses (XP(NB(8*i))) — the inspector–executor case
// of Section 4.5. The write to XP in the integrate statement may alias the
// indirect reads, so the compiler cannot disprove the dependence; the
// inspector resolves the actual indices at runtime and the executor
// schedules subcomputations with that knowledge.
//
// Run with: go run ./examples/moldyn
package main

import (
	"fmt"
	"log"

	"dmacp/pipeline"
)

func main() {
	kernel := pipeline.Kernel{
		Name: "moldyn",
		// Velocity-Verlet with double-buffered positions/velocities (the
		// way MiniMD separates its phases): forces are computed fresh, and
		// the integrated values land in new arrays.
		Statements: `
FX(8*i) = SIG(8*i)*(XP(NB(8*i))-XP(8*i)) + EPS(8*i)*(XP(NB(8*i+1))-XP(8*i))
VXN(8*i) = VX(8*i) + FX(8*i)*DT
XPN(8*i) = XP(8*i) + VXN(8*i)*DT`,
		Iterations: 192,
		Sweeps:     3,
		ArrayLen:   1 << 14,
	}

	rep, err := pipeline.Run(kernel, pipeline.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("MiniMD-style force/integrate kernel with neighbor lists")
	fmt.Println()
	fmt.Printf("inspector-executor engaged:      %v\n", rep.UsedInspector)
	fmt.Printf("compile-time analyzable refs:    %.1f%% (indirect XP(NB(...)) resolved at runtime)\n",
		rep.AnalyzableFraction*100)
	fmt.Printf("L2 hit/miss predictor accuracy:  %.1f%%\n", rep.PredictorAccuracy*100)
	fmt.Println()
	fmt.Printf("data movement:   %d -> %d links (%+.1f%%)\n",
		rep.DefaultMovement, rep.OptimizedMovement, -rep.MovementReduction()*100)
	fmt.Printf("execution time:  %.0f -> %.0f cycles (%.2fx)\n",
		rep.DefaultCycles, rep.OptimizedCycles, rep.Speedup())
	fmt.Printf("energy:          %+.1f%%\n", -rep.EnergySavings()*100)

	// Flow dependences FX -> VX -> XP chain through the three statements;
	// the scheduler orders the subcomputations and the race detector
	// confirms both schedules order every dependence instance.
	ok, err := pipeline.Verify(kernel, pipeline.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dependences preserved by both schedules: %v\n", ok)
}

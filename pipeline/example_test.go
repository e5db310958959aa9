package pipeline_test

import (
	"fmt"

	"dmacp/pipeline"
)

// Example demonstrates the one-call API: describe a kernel, run the
// partitioner, and read the comparison against the default placement.
func Example() {
	k := pipeline.Kernel{
		Name:       "example",
		Statements: "A(8*i) = B(8*i)+C(16*i)+D(8*i+64)+E(24*i)",
		Iterations: 64,
		ArrayLen:   1 << 13,
	}
	rep, err := pipeline.Run(k, pipeline.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Println("window within search range:", rep.WindowSize >= 1 && rep.WindowSize <= 8)
	fmt.Println("movement reduced:", rep.OptimizedMovement < rep.DefaultMovement)
	fmt.Println("tasks emitted:", rep.Tasks > 0)
	// Output:
	// window within search range: true
	// movement reduced: true
	// tasks emitted: true
}

// ExampleVerify shows the dependence check: the race detector finds every
// dependence ordered in both the optimized and the default schedule.
func ExampleVerify() {
	k := pipeline.Kernel{
		Name:       "verify",
		Statements: "A(i) = B(i)*(C(i)+D(i))",
		Iterations: 16,
		ArrayLen:   256,
	}
	ok, err := pipeline.Verify(k, pipeline.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Println("dependences preserved:", ok)
	// Output:
	// dependences preserved: true
}

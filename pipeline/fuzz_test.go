package pipeline

import (
	"errors"
	"testing"

	"dmacp/internal/ir"
)

// Fuzz budgets: an input the size limits accept but that would run more
// statement instances, or declare longer arrays, than these is skipped, so
// that every fuzz run stays small. Inputs past the limits still run, and
// must fail fast; the limits themselves, and the mesh limits, are pinned by
// TestBuildFailsFastOnBadInput.
const (
	fuzzMaxInstances = 1 << 12
	fuzzMaxArrayLen  = 1 << 16
)

// FuzzPipelineInput drives Run on the default mesh with arbitrary kernel
// text, Iterations, ArrayLen, Sweeps, Seed and cluster and memory mode
// strings. The oracle: Run returns a report, or an error wrapping
// ErrBadInput, and never panics. Seeds are TestBuildFailsFastOnBadInput's
// probes on dmacp's default kernel, without their mesh sizes.
func FuzzPipelineInput(f *testing.F) {
	const stmts = "A(8*i) = B(8*i)+C(16*i)+D(8*i+64)+E(24*i)\nX(8*i) = Y(8*i)+C(16*i)"
	type seed struct {
		iters, arrayLen, sweeps int
		cluster, memory         string
	}
	for _, s := range []seed{
		{256, 1 << 16, 3, "quadrant", "flat"},           // dmacp's default kernel
		{256, 4000000000, 3, "quadrant", "flat"},        // -len 4000000000
		{100000000, 16, 3, "quadrant", "flat"},          // -iters 100000000 -len 16
		{0, 1 << 16, 3, "quadrant", "flat"},             // -iters 0
		{256, 1 << 16, 3, "bogus", "flat"},              // -cluster bogus
		{4, 64, 3, "quadrant", "flat"},                  // the mesh probes' kernel
		{16, 4000000000, 3, "quadrant", "flat"},         // verify -app FFT -iters 16 -len 4000000000
		{256, 1 << 16, 3, "quadrant", "wrong"},          // an unknown memory mode
		{64, 1 << 13, 2, "snc-4", "hybrid"},             // the package's test kernel
		{64, -1, -1, "all-to-all", "cache"},             // defaulted length and sweeps
		{1 << 30, 1 << 30, 1 << 30, "quadrant", "flat"}, // overflowing products
	} {
		f.Add(stmts, s.iters, s.arrayLen, s.sweeps, int64(1), s.cluster, s.memory)
	}
	f.Add("S(0) = S(0)+A(i)", 64, 1<<10, 1, int64(3), "", "")
	f.Add("A(IX(i)) = B(IX(2*i))*C(i)", 64, 1<<10, 1, int64(5), "", "")
	f.Add("A(i) == B(i)", 8, 64, 1, int64(1), "", "")

	f.Fuzz(func(t *testing.T, stmts string, iters, arrayLen, sweeps int, seed int64, cluster, memory string) {
		k := Kernel{Name: "fuzz", Statements: stmts, Iterations: iters, Sweeps: sweeps, ArrayLen: arrayLen, Seed: seed}
		cfg := DefaultConfig()
		cfg.ClusterMode, cfg.MemoryMode = cluster, memory
		if body, err := ir.ParseStatements(stmts); err == nil {
			trips := max(sweeps, 1)
			if productWithin(maxStatementInstances, iters, trips, len(body)) && !productWithin(fuzzMaxInstances, iters, trips, len(body)) {
				t.Skip("within the instance limit, over the fuzz budget")
			}
			if n := arrayLen; n > fuzzMaxArrayLen && productWithin(maxArrayBytes, n, 8) {
				t.Skip("within the array-byte limit, over the fuzz budget")
			}
		}
		rep, err := Run(k, cfg)
		if err != nil && !errors.Is(err, ErrBadInput) {
			t.Fatalf("Run(%+v, %q, %q) = %v, want a report or ErrBadInput", k, cluster, memory, err)
		}
		if err == nil && rep == nil {
			t.Fatalf("Run(%+v, %q, %q) returned neither a report nor an error", k, cluster, memory)
		}
	})
}

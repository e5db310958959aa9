package pipeline

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func testKernel() Kernel {
	return Kernel{
		Name:       "test",
		Statements: "A(8*i) = B(8*i)+C(16*i)+D(8*i+64)+E(24*i)\nX(8*i) = Y(8*i)+C(16*i)",
		Iterations: 64,
		Sweeps:     2,
		ArrayLen:   1 << 13,
	}
}

func TestRunBasic(t *testing.T) {
	rep, err := Run(testKernel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowSize < 1 || rep.WindowSize > 8 {
		t.Errorf("window = %d", rep.WindowSize)
	}
	if rep.MovementReduction() <= 0 {
		t.Errorf("movement reduction = %v, want > 0", rep.MovementReduction())
	}
	if rep.Speedup() <= 0 {
		t.Errorf("speedup = %v", rep.Speedup())
	}
	if rep.Tasks == 0 {
		t.Error("no tasks emitted")
	}
	if rep.String() == "" {
		t.Error("empty String()")
	}
}

func TestRunRejectsBadKernels(t *testing.T) {
	bad := []Kernel{
		{Name: "noiter", Statements: "A(i) = B(i)", Iterations: 0},
		{Name: "empty", Statements: "", Iterations: 8},
		{Name: "syntax", Statements: "A(i) == B(i)", Iterations: 8},
	}
	for _, k := range bad {
		if _, err := Run(k, DefaultConfig()); !errors.Is(err, ErrBadInput) {
			t.Errorf("kernel %q: err = %v, want ErrBadInput", k.Name, err)
		}
	}
}

// TestBuildFailsFastOnBadInput drives dmacp's default kernel (7 arrays, 256
// iterations × 3 sweeps × 2 statements, 65,536-element arrays) with the
// flags of seven bad invocations of dmacp, dmacp faults and dmacp verify
// -app: each must fail with ErrBadInput, naming the limit it broke, before
// allocating its arrays, its mesh or its live-route table, or enumerating
// its instances.
func TestBuildFailsFastOnBadInput(t *testing.T) {
	dmacpKernel := func() Kernel {
		return Kernel{
			Name:       "kernel",
			Statements: "A(8*i) = B(8*i)+C(16*i)+D(8*i+64)+E(24*i)\nX(8*i) = Y(8*i)+C(16*i)",
			Iterations: 256,
			Sweeps:     3,
			ArrayLen:   1 << 16,
			Seed:       1,
		}
	}
	run := func(k Kernel, cfg Config) error { _, err := Run(k, cfg); return err }
	faults := func(k Kernel, cfg Config) error {
		_, err := RunFaults(k, cfg, FaultSpec{Links: 1, Seed: 1, ProtectMCs: true})
		return err
	}
	verifyApp := func(k Kernel, cfg Config) error {
		_, err := CheckAppSchedules("FFT", k.Iterations, k.ArrayLen, cfg)
		return err
	}
	cases := []struct {
		name  string
		run   func(Kernel, Config) error
		edit  func(*Kernel, *Config)
		limit string
	}{
		{"-len 4000000000", run, func(k *Kernel, _ *Config) { k.ArrayLen = 4000000000 }, "array bytes"},
		{"-iters 100000000 -len 16", run, func(k *Kernel, _ *Config) { k.Iterations, k.ArrayLen = 100000000, 16 }, "statement instances"},
		{"-iters 0", run, func(k *Kernel, _ *Config) { k.Iterations = 0 }, ""},
		{"-cluster bogus", run, func(_ *Kernel, c *Config) { c.ClusterMode = "bogus" }, ""},
		{"-rows 50000 -cols 50000 -iters 4 -len 64", run, func(k *Kernel, c *Config) {
			k.Iterations, k.ArrayLen = 4, 64
			c.MeshCols, c.MeshRows = 50000, 50000
		}, "limit of 4194304 mesh nodes"},
		{"faults -rows 400 -cols 400 -links 1 -iters 4 -len 64", faults, func(k *Kernel, c *Config) {
			k.Iterations, k.ArrayLen = 4, 64
			c.MeshCols, c.MeshRows = 400, 400
		}, "limit of 8192 mesh nodes"},
		{"verify -app FFT -iters 16 -len 4000000000", verifyApp, func(k *Kernel, _ *Config) {
			k.Iterations, k.ArrayLen = 16, 4000000000
		}, "array bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, cfg := dmacpKernel(), DefaultConfig()
			tc.edit(&k, &cfg)
			start := time.Now()
			err := tc.run(k, cfg)
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("rejection took %v", elapsed)
			}
			if !errors.Is(err, ErrBadInput) {
				t.Fatalf("err = %v, want ErrBadInput", err)
			}
			if !strings.Contains(err.Error(), tc.limit) {
				t.Errorf("err = %v, want it to name the %s limit", err, tc.limit)
			}
		})
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	k := testKernel()
	cfg := DefaultConfig()
	cfg.ClusterMode = "torus"
	if _, err := Run(k, cfg); err == nil {
		t.Error("unknown cluster mode accepted")
	}
	cfg = DefaultConfig()
	cfg.MemoryMode = "wrong"
	if _, err := Run(k, cfg); err == nil {
		t.Error("unknown memory mode accepted")
	}
	cfg = DefaultConfig()
	cfg.MeshCols, cfg.MeshRows = 1, 1
	if _, err := Run(k, cfg); err == nil {
		t.Error("degenerate mesh accepted")
	}
}

func TestRunClusterAndMemoryModes(t *testing.T) {
	for _, cm := range []string{"all-to-all", "quadrant", "snc-4"} {
		for _, mm := range []string{"flat", "cache", "hybrid"} {
			cfg := DefaultConfig()
			cfg.ClusterMode = cm
			cfg.MemoryMode = mm
			k := testKernel()
			k.Iterations = 24
			if _, err := Run(k, cfg); err != nil {
				t.Errorf("(%s, %s): %v", cm, mm, err)
			}
		}
	}
}

func TestRunFixedWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FixedWindow = 2
	rep, err := Run(testKernel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowSize != 2 {
		t.Errorf("window = %d, want 2", rep.WindowSize)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testKernel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testKernel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.OptimizedCycles != b.OptimizedCycles || a.OptimizedMovement != b.OptimizedMovement {
		t.Error("Run not deterministic")
	}
}

func TestRunIndirectKernel(t *testing.T) {
	k := Kernel{
		Name:       "scatter",
		Statements: "X(8*i) = B(8*i)\nZ(8*i) = X(Y(8*i))+B(8*i)",
		Iterations: 48,
		ArrayLen:   1 << 12,
	}
	rep, err := Run(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedInspector {
		t.Error("inspector not used for may-dependent kernel")
	}
	if rep.AnalyzableFraction >= 1 {
		t.Errorf("analyzable = %v", rep.AnalyzableFraction)
	}
}

func TestVerifySemantics(t *testing.T) {
	for _, k := range []Kernel{
		testKernel(),
		{Name: "parens", Statements: "A(i) = B(i)*(C(i)+D(i)+E(i))", Iterations: 32, ArrayLen: 512},
		{Name: "indirect", Statements: "A(i) = X(Y(i))+B(i)", Iterations: 32, ArrayLen: 512},
		{Name: "recurrence", Statements: "A(i) = A(i-1)+B(i)", Iterations: 32, ArrayLen: 512},
	} {
		ok, err := Verify(k, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if !ok {
			t.Errorf("%s: a schedule reorders a dependence", k.Name)
		}
	}
}

func TestAnalyzeDeps(t *testing.T) {
	k := Kernel{
		Name:       "deps",
		Statements: "A(i) = B(i)+C(i)\nD(i) = A(i)+A(i-1)",
		Iterations: 16,
		ArrayLen:   256,
	}
	lines, err := AnalyzeDeps(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	foundFlow := false
	for _, l := range lines {
		if l == "flow dep S1 -> S2 on A (same-iteration)" {
			foundFlow = true
		}
	}
	if !foundFlow {
		t.Errorf("same-iteration flow dep missing from %v", lines)
	}

	// A disprovable pair must be filtered by the exact tests.
	k2 := Kernel{
		Name:       "parity",
		Statements: "A(2*i) = B(i)\nC(i) = A(2*i+1)",
		Iterations: 16,
		ArrayLen:   256,
	}
	lines2, err := AnalyzeDeps(k2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines2 {
		if l == "flow dep S1 -> S2 on A (loop-carried)" {
			t.Errorf("GCD-refutable dep survived: %v", lines2)
		}
	}
}

func TestAnalyzeDepsMayDeps(t *testing.T) {
	k := Kernel{
		Name:       "may",
		Statements: "X(i) = B(i)\nZ(i) = X(Y(i))",
		Iterations: 16,
		ArrayLen:   256,
	}
	lines, err := AnalyzeDeps(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	note := false
	for _, l := range lines {
		if l == "may-dependences present: inspector-executor will run" {
			note = true
		}
	}
	if !note {
		t.Errorf("inspector note missing: %v", lines)
	}
}

func TestEmitCode(t *testing.T) {
	k := testKernel()
	k.Iterations = 8
	k.Sweeps = 1
	code, err := EmitCode(k, DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"node ", "combine(", "tasks over"} {
		if !contains(code, want) {
			t.Errorf("emitted code missing %q", want)
		}
	}
	if _, err := EmitCode(Kernel{Name: "bad", Statements: "(", Iterations: 1}, DefaultConfig(), 0); err == nil {
		t.Error("bad kernel accepted")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCheckSchedulesClean(t *testing.T) {
	checks, err := CheckSchedules(testKernel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 2 {
		t.Fatalf("checks = %d, want 2 (optimized + default)", len(checks))
	}
	names := map[string]bool{}
	for _, c := range checks {
		names[c.Schedule] = true
		if !c.Clean {
			t.Errorf("%s schedule not clean: %s\n%v", c.Schedule, c.Summary, c.Diagnostics)
		}
		if c.Summary == "" {
			t.Errorf("%s: empty summary", c.Schedule)
		}
	}
	if !names["optimized"] || !names["default"] {
		t.Errorf("schedules named %v, want optimized and default", names)
	}
}

// TestCheckAppSchedulesLargeMesh verifies both schedules of every workload on
// a 16x16 mesh. Write-invalidation and WAR ordering visit only a line's
// recorded holders, which is easy to get wrong only where most nodes never
// touch a given line; small meshes cannot tell the two apart.
func TestCheckAppSchedulesLargeMesh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeshCols, cfg.MeshRows = 16, 16
	for _, name := range WorkloadNames() {
		checks, err := CheckAppSchedules(name, 32, 4096, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(checks) == 0 {
			t.Errorf("%s: no schedules checked", name)
		}
		for _, c := range checks {
			if !c.Clean {
				t.Errorf("%s not clean: %s\n%v", c.Schedule, c.Summary, c.Diagnostics)
			}
		}
	}
}

// A report whose optimized side is worse prints signed increases, not a
// hard-coded minus in front of a negative reduction.
func TestReportStringSignedChange(t *testing.T) {
	rep := &Report{
		Kernel: "worse", WindowSize: 1,
		DefaultMovement: 1000, OptimizedMovement: 1056,
		DefaultCycles: 100, OptimizedCycles: 110,
		DefaultEnergy: 14314442, OptimizedEnergy: 15120761,
	}
	s := rep.String()
	if strings.Contains(s, "--") {
		t.Fatalf("String() has a double minus: %s", s)
	}
	for _, want := range []string{"movement 1000->1056 (+5.6%)", "energy +5.6%"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %s, want it to contain %q", s, want)
		}
	}

	rep.OptimizedMovement, rep.OptimizedEnergy = 958, 13713258
	s = rep.String()
	for _, want := range []string{"movement 1000->958 (-4.2%)", "energy -4.2%"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %s, want it to contain %q", s, want)
		}
	}
}

// The CLI's default kernel partitions, simulates and verifies on a
// 160,000-node mesh in bounded memory: nothing on the path may hold
// per-node-pair state.
func TestRunLargeMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("partitions on a 400x400 mesh")
	}
	k := Kernel{
		Name:       "kernel",
		Statements: "A(8*i) = B(8*i)+C(16*i)+D(8*i+64)+E(24*i)\nX(8*i) = Y(8*i)+C(16*i)",
		Iterations: 256,
		Sweeps:     3,
		ArrayLen:   1 << 16,
		Seed:       1,
	}
	cfg := DefaultConfig()
	cfg.MeshCols, cfg.MeshRows = 400, 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(k, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks == 0 {
		t.Error("no tasks emitted")
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got >= 1<<30 {
		t.Errorf("Run on a 400x400 mesh allocated %d bytes, want < 1 GB", got)
	}
	t.Logf("Run on a 400x400 mesh allocated %d MB", got>>20)
}

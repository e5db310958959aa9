package exp

import (
	"testing"

	"dmacp/internal/workloads"
)

// TestFaultSweepAllWorkloadsRepairClean is the acceptance harness: across
// all 12 workloads, inject up to 3 dead links plus 1 dead non-MC tile,
// repair every schedule through the verifier-gated path, and require that
// every survivor verifies clean and that movement degrades
// monotonically-reasonably across the nested fault ladder.
func TestFaultSweepAllWorkloadsRepairClean(t *testing.T) {
	res, err := FaultSweep(GateConfig{Scale: workloads.TestScale(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired == 0 {
		t.Fatal("sweep repaired no schedules")
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, nm := range res.NonMonotonic {
		t.Errorf("movement degradation not monotonic: %s", nm)
	}
	if r := res.MovementRatio[0]; r != 1 {
		t.Errorf("level 0 (no faults) movement ratio = %.4f, want exactly 1", r)
	}
	last := res.MovementRatio[len(res.MovementRatio)-1]
	if last < 1 {
		t.Errorf("max fault level movement ratio = %.4f, want >= 1 (faults cannot reduce movement)", last)
	}
	if res.CycleRatio[0] == 0 {
		t.Error("level 0 cycle ratio missing: degraded simulation did not run")
	}
}

// TestFaultSweepSeedsDiffer guards determinism plumbing: two sweeps with the
// same seed agree exactly; a different seed changes the injected faults (and
// so, almost surely, some ratio).
func TestFaultSweepSeedsDiffer(t *testing.T) {
	cfg := GateConfig{
		Apps:  []string{"FFT"},
		Scale: workloads.TestScale(),
		Seed:  1,
	}
	a, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.MovementRatio {
		if a.MovementRatio[i] != b.MovementRatio[i] {
			t.Fatalf("same seed, different level-%d ratio: %v vs %v", i, a.MovementRatio[i], b.MovementRatio[i])
		}
	}
	cfg.Seed = 99
	c, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.MovementRatio {
		if a.MovementRatio[i] != c.MovementRatio[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical degradation ratios across every level")
	}
}

package exp

import (
	"fmt"
	"reflect"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
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

// TestRepairAutoMatchesBetterForcedStrategy guards the AssignAuto repair,
// which runs min-cost in place and greedy on one clone: over the fault
// sweep's cases it must leave exactly the schedule, and return exactly the
// report, of the better of the forced AssignMinCost and AssignGreedy
// repairs, ties going to min-cost.
func TestRepairAutoMatchesBetterForcedStrategy(t *testing.T) {
	type tally struct {
		cases, greedy int
		diffs         []string
	}
	_, byApp, err := runSeries("faultsweep", GateConfig{Seed: 1}, func(s *gateSeries, out *tally) error {
		for _, lvl := range faultLevels {
			fs := mesh.Inject(s.opts.Mesh, s.seed, lvl.Links, lvl.Routers, lvl.Tiles, true)
			repair := func(strat core.AssignStrategy) (*core.Schedule, *core.RepairReport, error) {
				c := s.part.Schedule.Clone()
				rep, err := core.RepairSchedule(c, s.opts.Mesh, fs, core.RepairOptions{
					LoadThreshold: s.opts.LoadThreshold, Strategy: strat,
				})
				return c, rep, err
			}
			auto, repAuto, errAuto := repair(core.AssignAuto)
			want, wantRep, errWant := repair(core.AssignMinCost)
			gr, repGr, errGr := repair(core.AssignGreedy)
			if errGr == nil && (errWant != nil || repGr.MovementAfter < wantRep.MovementAfter) {
				want, wantRep, errWant = gr, repGr, nil
				out.greedy++
			}
			out.cases++
			variant := fmt.Sprintf("%s level=%s", s.variant(), lvl)
			switch {
			case (errAuto != nil) != (errWant != nil):
				out.diffs = append(out.diffs, fmt.Sprintf("%s: auto error %v, forced %v", variant, errAuto, errWant))
			case errAuto != nil:
			case !reflect.DeepEqual(repAuto, wantRep):
				out.diffs = append(out.diffs, fmt.Sprintf("%s: auto report %+v, forced %+v", variant, *repAuto, *wantRep))
			case !reflect.DeepEqual(auto, want):
				out.diffs = append(out.diffs, fmt.Sprintf("%s: auto schedule differs from the forced %s one", variant, wantRep.Strategy))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cases, greedy := 0, 0
	for _, outs := range byApp {
		for _, out := range outs {
			cases += out.cases
			greedy += out.greedy
			for _, d := range out.diffs {
				t.Error(d)
			}
		}
	}
	t.Logf("%d cases, greedy strictly better on %d", cases, greedy)
	if greedy == 0 {
		t.Error("greedy never won: the copy-back branch went unchecked")
	}
}

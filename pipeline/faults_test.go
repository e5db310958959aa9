package pipeline

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// faultKernel is small enough that every fault test repairs in well under a
// second.
func faultKernel() Kernel {
	return Kernel{
		Name:       "faulty",
		Statements: "A(i) = B(i)+C(2*i)\nD(i) = A(i)*B(i+1)",
		Iterations: 48,
		ArrayLen:   1 << 12,
	}
}

// cleanSummary reports whether a verifier summary line names zero violations.
func cleanSummary(s string) bool {
	return strings.Contains(s, "dependence pairs checked: 0 violations")
}

func TestRunFaultsRepairsDeadLink(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		cfg := DefaultConfig()
		cfg.Timeout = timeout
		rep, err := RunFaults(faultKernel(), cfg, FaultSpec{KillLinks: "14-15"})
		if err != nil {
			t.Fatalf("timeout %v: %v", timeout, err)
		}
		if !cleanSummary(rep.VerifySummary) {
			t.Errorf("timeout %v: verify summary %q, want zero violations", timeout, rep.VerifySummary)
		}
		if rep.BaseMovement == 0 || rep.FaultMovement < rep.BaseMovement {
			t.Errorf("timeout %v: movement %d -> %d, want a positive base the fault cannot shrink",
				timeout, rep.BaseMovement, rep.FaultMovement)
		}
		if rep.FaultCycles == 0 {
			t.Errorf("timeout %v: degraded simulation did not run", timeout)
		}
	}
}

func TestRunFaultsOnlineRepairsDeadLink(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		cfg := DefaultConfig()
		cfg.Timeout = timeout
		rep, err := RunFaultsOnline(faultKernel(), cfg, FaultSpec{KillLinks: "14-15"}, 0.5)
		if err != nil {
			t.Fatalf("timeout %v: %v", timeout, err)
		}
		if !cleanSummary(rep.VerifySummary) {
			t.Errorf("timeout %v: verify summary %q, want zero violations", timeout, rep.VerifySummary)
		}
		if rep.ArrivalCycle <= 0 || rep.ArrivalCycle >= rep.BaseCycles {
			t.Errorf("timeout %v: arrival cycle %.0f outside the pristine makespan %.0f",
				timeout, rep.ArrivalCycle, rep.BaseCycles)
		}
		if rep.ResidualTasks == 0 || rep.ResumeCycles == 0 {
			t.Errorf("timeout %v: %d residual tasks resumed to cycle %.0f, want a simulated residual",
				timeout, rep.ResidualTasks, rep.ResumeCycles)
		}
	}
}

func TestRunFaultsOnlineRejectsBadInput(t *testing.T) {
	link := FaultSpec{KillLinks: "14-15"}
	for _, tc := range []struct {
		name string
		spec FaultSpec
		frac float64
	}{
		{"arrival 0", link, 0},
		{"arrival 1", link, 1},
		{"empty fault set", FaultSpec{}, 0.5},
	} {
		_, err := RunFaultsOnline(faultKernel(), DefaultConfig(), tc.spec, tc.frac)
		if !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: err = %v, want ErrBadInput", tc.name, err)
		}
	}
}

func TestRunFaultsAllMCsDeadIsUnrepairable(t *testing.T) {
	spec := FaultSpec{KillTiles: "0,5,30,35"}
	_, err := RunFaults(faultKernel(), DefaultConfig(), spec)
	if err == nil {
		t.Fatal("killing every memory controller was repaired")
	}
	if errors.Is(err, ErrBadInput) {
		t.Fatalf("unrepairable set reported as bad input: %v", err)
	}
	if !strings.Contains(err.Error(), "is unrepairable") || !strings.Contains(err.Error(), "failed at stage ") {
		t.Errorf("error %q does not name the failed stage", err)
	}
	if _, err := RunFaultsOnline(faultKernel(), DefaultConfig(), spec, 0.5); err == nil ||
		!strings.Contains(err.Error(), "failed at stage ") {
		t.Errorf("online: err = %v, want the unrepairable error naming its stage", err)
	}
}

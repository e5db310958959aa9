package exp

import (
	"reflect"
	"strings"
	"testing"

	"dmacp/internal/workloads"
)

// gateCase is one differential gate as the shared -j determinism and Runner
// checks drive it.
type gateCase struct {
	// sweep runs the gate on a small fixed configuration at the given -j.
	sweep func(jobs int) (any, error)
	// entry is the Runner's experiment wrapper; title must appear in its
	// title and minStrictWins bounds its strictWins headline (0: unchecked).
	entry         func(*Runner) (*Experiment, error)
	title         string
	minStrictWins float64
}

// result erases a gate's result type so the cases fit one table.
func result[T any](r T, err error) (any, error) { return r, err }

// gateCases lists the five differential gates by experiment id.
var gateCases = map[string]gateCase{
	"verifydiff": {
		sweep: func(jobs int) (any, error) {
			return result(VerifyDifferential(VerifyDiffConfig{Programs: 4, Seed: 11, Iters: 12, Elems: 1 << 10, Jobs: jobs}))
		},
	},
	"faultsweep": {
		sweep: func(jobs int) (any, error) {
			return result(FaultSweep(GateConfig{Apps: []string{"FFT", "LU", "Radix"},
				Scale: workloads.Scale{Iters: 16, Elems: 1 << 11}, Seed: 1, Jobs: jobs}))
		},
		entry: (*Runner).FaultSweep, title: "Fault injection",
	},
	"onlinesweep": {
		sweep: func(jobs int) (any, error) {
			return result(OnlineSweep(GateConfig{Apps: []string{"FFT", "MiniMD"},
				Scale: workloads.TestScale(), Seed: 7, Jobs: jobs}))
		},
		entry: (*Runner).OnlineSweep, title: "Online fault arrival",
	},
	"churnsweep": {
		sweep: func(jobs int) (any, error) {
			return result(ChurnSweep(GateConfig{Apps: []string{"FFT", "MiniMD"},
				Scale: workloads.TestScale(), Seed: 7, Jobs: jobs}))
		},
		entry: (*Runner).ChurnSweep, title: "Fault churn",
	},
	"fusionsweep": {
		sweep: func(jobs int) (any, error) {
			return result(FusionSweep(GateConfig{Scale: workloads.TestScale(), Jobs: jobs}))
		},
		entry: (*Runner).FusionSweep, title: "Fusion pre-pass", minStrictWins: 4,
	},
}

// checkJobsDeterminism requires a gate's aggregate result to be identical at
// -j 1 and -j 8: its series are enumerated and seeded up front and merged in
// series order.
func checkJobsDeterminism(t *testing.T, id string) {
	t.Helper()
	serial, err := gateCases[id].sweep(1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := gateCases[id].sweep(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("%s differs between -j1 and -j8:\nserial: %+v\nwide:   %+v", id, serial, wide)
	}
}

// checkRunnerGate runs a gate through the experiment wrapper the CLI uses
// and requires its ID, its title and a zero-violation headline.
func checkRunnerGate(t *testing.T, id string) {
	t.Helper()
	c := gateCases[id]
	e, err := c.entry(NewRunner(workloads.TestScale()))
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != id {
		t.Fatalf("experiment ID = %q, want %q", e.ID, id)
	}
	if v := e.Headline["violations"]; v != 0 {
		t.Errorf("%s headline violations = %v, want 0\n%s", id, v, e.Table)
	}
	if w := e.Headline["strictWins"]; w < c.minStrictWins {
		t.Errorf("%s headline strictWins = %v, want >= %v\n%s", id, w, c.minStrictWins, e.Table)
	}
	if !strings.Contains(e.Title, c.title) {
		t.Errorf("%s: unexpected title %q", id, e.Title)
	}
}

func TestVerifyDifferentialDeterministicAcrossJobs(t *testing.T) {
	checkJobsDeterminism(t, "verifydiff")
}

func TestFaultSweepDeterministicAcrossJobs(t *testing.T) { checkJobsDeterminism(t, "faultsweep") }
func TestOnlineSweepJobsDeterminism(t *testing.T)        { checkJobsDeterminism(t, "onlinesweep") }
func TestChurnSweepJobsDeterminism(t *testing.T)         { checkJobsDeterminism(t, "churnsweep") }
func TestFusionSweepJobsDeterminism(t *testing.T)        { checkJobsDeterminism(t, "fusionsweep") }

func TestRunnerFaultSweepExperiment(t *testing.T)  { checkRunnerGate(t, "faultsweep") }
func TestRunnerOnlineSweepExperiment(t *testing.T) { checkRunnerGate(t, "onlinesweep") }
func TestRunnerChurnSweepExperiment(t *testing.T)  { checkRunnerGate(t, "churnsweep") }
func TestRunnerFusionSweepExperiment(t *testing.T) { checkRunnerGate(t, "fusionsweep") }

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
	// id is the gate's experiment id and its subtest name.
	id string
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

// gateCases lists the five differential gates, one subtest each.
var gateCases = []gateCase{
	{
		id: "verifydiff",
		sweep: func(jobs int) (any, error) {
			return result(VerifyDifferential(VerifyDiffConfig{Programs: 4, Seed: 11, Iters: 12, Elems: 1 << 10, Jobs: jobs}))
		},
	},
	{
		id: "faultsweep",
		sweep: func(jobs int) (any, error) {
			return result(FaultSweep(GateConfig{Apps: []string{"FFT", "LU", "Radix"},
				Scale: workloads.Scale{Iters: 16, Elems: 1 << 11}, Seed: 1, Jobs: jobs}))
		},
		entry: (*Runner).FaultSweep, title: "Fault injection",
	},
	{
		id: "onlinesweep",
		sweep: func(jobs int) (any, error) {
			return result(OnlineSweep(GateConfig{Apps: []string{"FFT", "MiniMD"},
				Scale: workloads.TestScale(), Seed: 7, Jobs: jobs}))
		},
		entry: (*Runner).OnlineSweep, title: "Online fault arrival",
	},
	{
		id: "churnsweep",
		sweep: func(jobs int) (any, error) {
			return result(ChurnSweep(GateConfig{Apps: []string{"FFT", "MiniMD"},
				Scale: workloads.TestScale(), Seed: 7, Jobs: jobs}))
		},
		entry: (*Runner).ChurnSweep, title: "Fault churn",
	},
	{
		id: "fusionsweep",
		sweep: func(jobs int) (any, error) {
			return result(FusionSweep(GateConfig{Scale: workloads.TestScale(), Jobs: jobs}))
		},
		entry: (*Runner).FusionSweep, title: "Fusion pre-pass", minStrictWins: 4,
	},
}

// TestGatesDeterministicAcrossJobs requires each gate's aggregate result to
// be identical at -j 1 and -j 8: its series are enumerated and seeded up
// front and merged in series order.
func TestGatesDeterministicAcrossJobs(t *testing.T) {
	for _, c := range gateCases {
		t.Run(c.id, func(t *testing.T) {
			serial, err := c.sweep(1)
			if err != nil {
				t.Fatal(err)
			}
			wide, err := c.sweep(8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, wide) {
				t.Fatalf("%s differs between -j1 and -j8:\nserial: %+v\nwide:   %+v", c.id, serial, wide)
			}
		})
	}
}

// TestRunnerGateExperiments runs each gate with a Runner wrapper through the
// entry point the CLI uses and requires its ID, its title and a
// zero-violation headline.
func TestRunnerGateExperiments(t *testing.T) {
	for _, c := range gateCases {
		if c.entry == nil {
			continue
		}
		t.Run(c.id, func(t *testing.T) {
			e, err := c.entry(NewRunner(workloads.TestScale()))
			if err != nil {
				t.Fatal(err)
			}
			if e.ID != c.id {
				t.Fatalf("experiment ID = %q, want %q", e.ID, c.id)
			}
			if v := e.Headline["violations"]; v != 0 {
				t.Errorf("%s headline violations = %v, want 0\n%s", c.id, v, e.Table)
			}
			if w := e.Headline["strictWins"]; w < c.minStrictWins {
				t.Errorf("%s headline strictWins = %v, want >= %v\n%s", c.id, w, c.minStrictWins, e.Table)
			}
			if !strings.Contains(e.Title, c.title) {
				t.Errorf("%s: unexpected title %q", c.id, e.Title)
			}
		})
	}
}

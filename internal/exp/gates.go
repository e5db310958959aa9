// The workload differential gates — FaultSweep, OnlineSweep, ChurnSweep and
// FusionSweep — share one harness: every gate builds the suite, partitions
// each (app, nest) series under one partitioner variant, runs its own case
// body per series on the worker pool, and merges the per-series tallies in
// series order. `make gates` runs all of them (and VerifyDifferential).

package exp

import (
	"fmt"

	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/par"
	"dmacp/internal/stats"
	"dmacp/internal/verify"
	"dmacp/internal/workloads"
)

// GateConfig parameterizes the workload gates.
type GateConfig struct {
	// Apps lists the workloads to sweep (default: all 12).
	Apps []string
	// Scale sizes each workload build (default workloads.TestScale()).
	Scale workloads.Scale
	// Seed drives fault injection (default 1): series i, counted in suite
	// order, derives its sub-seed Seed + i*1000003. FusionSweep injects no
	// faults and ignores it.
	Seed int64
	// Jobs bounds the worker pool the independent series run on. <= 0 means
	// one worker per CPU; 1 forces a serial sweep. The result is identical at
	// every setting: series are enumerated and seeded up front and their
	// tallies merge in series order, so float accumulation order, and
	// therefore every reported digit, matches the serial sweep.
	Jobs int
}

func (c GateConfig) withDefaults() GateConfig {
	if len(c.Apps) == 0 {
		c.Apps = workloads.Names()
	}
	if c.Scale.Iters <= 0 {
		c.Scale = workloads.TestScale()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// gateMode and gateWindow are the partitioner variant every workload gate
// sweeps: the quadrant cluster mode with a fixed 4-statement window, which
// skips the 8-pass adaptive search and keeps the sweeps fast.
const (
	gateMode   = mesh.Quadrant
	gateWindow = 4
)

// gateSeries is one (app, nest) series of a workload gate: the nest
// partitioned under the gate variant, with its own options (and mesh) and
// fault-injection sub-seed.
type gateSeries struct {
	app  *workloads.App
	nest *ir.Nest
	seed int64
	opts core.Options
	part *core.Result
}

// variant names the series in diagnostics.
func (s *gateSeries) variant() string {
	return fmt.Sprintf("%s mode=%v w=%d", s.nest.Name, gateMode, gateWindow)
}

// checker gates repair candidates of the series on the mesh degraded by f;
// completed, when set, marks the instances a mid-run checkpoint finished.
func (s *gateSeries) checker(f *mesh.FaultSet, completed func(iter, stmt int) bool) core.RepairChecker {
	in := verify.PartitionInput(s.app.Prog, s.app.Store, s.part, s.opts)
	in.Faults, in.Completed = f, completed
	return verify.Checker(in)
}

// runSeries runs one workload gate over cfg: it builds the apps at cfg.Scale,
// enumerates their (app, nest) series in suite order, and on the worker pool
// partitions each series and runs the case body on it with the series' own
// tally. It returns the swept app names and the tallies grouped by app
// position, each group in nest order; on failure it returns the first error
// in series order.
func runSeries[T any](gate string, cfg GateConfig, run func(s *gateSeries, out *T) error) ([]string, [][]T, error) {
	cfg = cfg.withDefaults()
	var series []gateSeries
	perApp := make([]int, len(cfg.Apps))
	for ai, name := range cfg.Apps {
		app, err := workloads.Build(name, cfg.Scale)
		if err != nil {
			return nil, nil, err
		}
		for _, nest := range app.Nests {
			series = append(series, gateSeries{app: app, nest: nest, seed: cfg.Seed + int64(len(series))*1000003})
		}
		perApp[ai] = len(app.Nests)
	}

	tallies := make([]T, len(series))
	errs := make([]error, len(series))
	if err := par.ForEach(cfg.Jobs, len(series), func(i int) {
		s := series[i]
		s.opts = core.DefaultOptions()
		s.opts.Mode = gateMode
		s.opts.FixedWindow = gateWindow
		part, err := core.Partition(s.app.Prog, s.nest, s.app.Store, s.opts)
		if err != nil {
			errs[i] = fmt.Errorf("exp: %s %s: %w", gate, s.variant(), err)
			return
		}
		s.part = part
		errs[i] = run(&s, &tallies[i])
	}); err != nil {
		return nil, nil, err
	}
	if err := par.FirstError(errs); err != nil {
		return nil, nil, err
	}
	byApp := make([][]T, len(cfg.Apps))
	for ai, n := range perApp {
		byApp[ai], tallies = tallies[:n:n], tallies[n:]
	}
	return cfg.Apps, byApp, nil
}

// addCapped adds the first three lines of list to t as "<label> k" rows and
// folds the rest into one "... N more" row.
func addCapped(t *stats.Table, label string, list []string) {
	for i, v := range list {
		if i == 3 {
			t.Add("...", fmt.Sprintf("%d more", len(list)-3))
			return
		}
		t.Add(fmt.Sprintf("%s %d", label, i+1), v)
	}
}

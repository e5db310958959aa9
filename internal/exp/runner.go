// Package exp is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (Tables 1-3, Figures 13-24) over the
// 12-application workload suite, printing the same rows/series the paper
// reports. Each experiment is a function on a Runner; the Runner caches the
// expensive per-application base artifacts (default placement, optimized
// partition, simulations) so the experiments share work.
package exp

import (
	"fmt"
	"sync"

	"dmacp/internal/baseline"
	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/par"
	"dmacp/internal/predictor"
	"dmacp/internal/sim"
	"dmacp/internal/workloads"
)

// Runner executes experiments at a fixed scale and platform configuration.
//
// Concurrency: Base is safe to call from multiple goroutines — each app's
// artifacts are built exactly once (per-app singleflight) and are read-only
// after Base returns. Experiments fan their per-app work out on up to Jobs
// workers and fold indexed results in app order, so their tables are
// byte-identical to a serial run at any Jobs setting.
type Runner struct {
	Scale workloads.Scale
	// Opts is the platform description used for every run (quadrant mode,
	// 6x6 mesh by default). Runs that vary the configuration (Figure 22)
	// copy and modify it.
	Opts core.Options
	// MemMode is the memory mode used by the simulator for base runs.
	MemMode sim.MemMode
	// Jobs bounds the experiment worker pool (and is forwarded to the
	// partitioner's window sweep via Opts.Jobs by the CLIs). <= 0 means one
	// worker per CPU; 1 forces serial execution.
	Jobs int

	mu   sync.Mutex
	base map[string]*baseEntry
}

// baseEntry singleflights one app's base build: the first caller runs the
// build under the entry's Once, every later caller blocks on it and shares
// the result.
type baseEntry struct {
	once sync.Once
	ar   *AppRun
	err  error
}

// NewRunner builds a runner with the evaluation defaults: quadrant cluster
// mode, flat memory mode, and the predictor configured like Table 2.
func NewRunner(sc workloads.Scale) *Runner {
	opts := core.DefaultOptions()
	opts.Predictor = predictor.MustNew(predictor.Config{
		L2TotalBytes: opts.L2BankBytes * uint64(opts.Mesh.Nodes()),
		LineBytes:    opts.Layout.LineBytes,
		Ways:         opts.L2Ways,
		SampleMod:    8,
	})
	return &Runner{Scale: sc, Opts: opts, MemMode: sim.Flat, base: map[string]*baseEntry{}}
}

// NestRun holds the artifacts of one nest under one configuration.
type NestRun struct {
	Nest *ir.Nest
	Def  *baseline.Result
	Opt  *core.Result
}

// AppRun is the cached base artifacts of one application.
type AppRun struct {
	App   *workloads.App
	Nests []*NestRun

	// Simulated results, aggregated over nests (cycles summed: nests run
	// back to back; energies summed; latency stats instance-weighted).
	SimDef, SimOpt *SimAgg
	// SimDefIdealNet is the default execution with a zero-latency network
	// (Section 6.4's ideal network); SimOptIdeal is the optimized run under
	// oracle data analysis.
	SimDefIdealNet *SimAgg
	SimOptIdeal    *SimAgg
}

// SimAgg aggregates simulator results over an app's nests.
//
// Ownership: add and finish lock the aggregate, so concurrent adds from
// worker goroutines are safe; the exported fields carry no lock, so they must
// only be read after every add has completed (for the Runner's base
// aggregates, after Base returns).
type SimAgg struct {
	mu         sync.Mutex
	Cycles     float64
	Energy     sim.Energy
	AvgNetLat  float64
	MaxNetLat  float64
	L1Hits     int64
	L1Refs     int64
	SyncArcs   int64
	L2Misses   int64
	Transfers  int64
	HopsTotal  int64
	nestsSeen  int
	latWeights float64
}

func (a *SimAgg) add(r *sim.Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.Cycles += r.Cycles
	a.Energy.Network += r.Energy.Network
	a.Energy.Cache += r.Energy.Cache
	a.Energy.DRAM += r.Energy.DRAM
	a.Energy.Compute += r.Energy.Compute
	a.Energy.Static += r.Energy.Static
	w := float64(r.Transfers)
	a.AvgNetLat += r.AvgNetLatency * w
	a.latWeights += w
	if r.MaxNetLatency > a.MaxNetLat {
		a.MaxNetLat = r.MaxNetLatency
	}
	a.L1Hits += r.L1Hits
	a.L1Refs += r.L1Refs
	a.SyncArcs += r.SyncArcs
	a.L2Misses += r.L2Misses
	a.Transfers += r.Transfers
	a.HopsTotal += r.HopsTotal
	a.nestsSeen++
}

// finish normalizes weighted averages.
func (a *SimAgg) finish() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.latWeights > 0 {
		a.AvgNetLat /= a.latWeights
	}
}

// L1HitRate returns the aggregated hit rate.
func (a *SimAgg) L1HitRate() float64 {
	if a.L1Refs == 0 {
		return 0
	}
	return float64(a.L1Hits) / float64(a.L1Refs)
}

// simConfig builds the simulator configuration for the runner's platform.
func (r *Runner) simConfig() sim.Config {
	cfg := sim.DefaultConfig(r.Opts.Mesh)
	cfg.MemMode = r.MemMode
	return cfg
}

// Base returns (building and caching on first use) the base artifacts of one
// application: default placement, optimized partition, and the four
// simulations the shared experiments need. Safe for concurrent use; each
// app's build runs exactly once and concurrent callers share it.
func (r *Runner) Base(name string) (*AppRun, error) {
	r.mu.Lock()
	if r.base == nil {
		r.base = map[string]*baseEntry{}
	}
	e, ok := r.base[name]
	if !ok {
		e = &baseEntry{}
		r.base[name] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.ar, e.err = r.buildBase(name) })
	return e.ar, e.err
}

// Warm builds the base artifacts of the named apps (every app when none are
// given) on the worker pool, so experiments that then iterate serially hit
// the cache. The returned error is the one the serial build order would have
// reported first.
func (r *Runner) Warm(names ...string) error {
	if len(names) == 0 {
		names = appNames()
	}
	errs := make([]error, len(names))
	if err := par.ForEach(r.Jobs, len(names), func(i int) {
		_, errs[i] = r.Base(names[i])
	}); err != nil {
		return err
	}
	return par.FirstError(errs)
}

// warmed is the experiment preamble: parallel-build all base artifacts and
// return the app list to iterate (in fixed suite order).
func (r *Runner) warmed() ([]string, error) {
	names := appNames()
	if err := r.Warm(names...); err != nil {
		return nil, err
	}
	return names, nil
}

// buildBase constructs one app's artifacts; called once per app via Base.
func (r *Runner) buildBase(name string) (*AppRun, error) {
	app, err := workloads.Build(name, r.Scale)
	if err != nil {
		return nil, err
	}
	ar := &AppRun{
		App:            app,
		SimDef:         &SimAgg{},
		SimOpt:         &SimAgg{},
		SimDefIdealNet: &SimAgg{},
		SimOptIdeal:    &SimAgg{},
	}
	cfg := r.simConfig()
	idealNetCfg := cfg
	idealNetCfg.IdealNetwork = true

	idealOpts := r.Opts
	idealOpts.IdealAnalysis = true
	idealOpts.Predictor = nil

	for _, nest := range app.Nests {
		def, err := baseline.Place(app.Prog, nest, app.Store, r.Opts, baseline.ProfiledLocality)
		if err != nil {
			return nil, fmt.Errorf("exp: %s default: %w", nest.Name, err)
		}
		opt, err := core.Partition(app.Prog, nest, app.Store, r.Opts)
		if err != nil {
			return nil, fmt.Errorf("exp: %s optimized: %w", nest.Name, err)
		}
		ar.Nests = append(ar.Nests, &NestRun{Nest: nest, Def: def, Opt: opt})

		if sr, err := sim.Run(def.Schedule, cfg); err == nil {
			ar.SimDef.add(sr)
		} else {
			return nil, err
		}
		if sr, err := sim.Run(opt.Schedule, cfg); err == nil {
			ar.SimOpt.add(sr)
		} else {
			return nil, err
		}
		if sr, err := sim.Run(def.Schedule, idealNetCfg); err == nil {
			ar.SimDefIdealNet.add(sr)
		} else {
			return nil, err
		}
		optIdeal, err := core.Partition(app.Prog, nest, app.Store, idealOpts)
		if err != nil {
			return nil, err
		}
		if sr, err := sim.Run(optIdeal.Schedule, cfg); err == nil {
			ar.SimOptIdeal.add(sr)
		} else {
			return nil, err
		}
	}
	ar.SimDef.finish()
	ar.SimOpt.finish()
	ar.SimDefIdealNet.finish()
	ar.SimOptIdeal.finish()
	return ar, nil
}

// DefMovement sums default movement over nests.
func (ar *AppRun) DefMovement() int64 {
	var s int64
	for _, n := range ar.Nests {
		s += n.Def.TotalMovement
	}
	return s
}

// OptMovement sums optimized movement over nests.
func (ar *AppRun) OptMovement() int64 {
	var s int64
	for _, n := range ar.Nests {
		s += n.Opt.Stats.TotalMovement
	}
	return s
}

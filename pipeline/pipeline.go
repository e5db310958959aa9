// Package pipeline is the public API of the dmacp library: a stable facade
// over the internal packages that lets a user describe a loop-nest kernel in
// the statement language, run the NDP-aware computation partitioner of
// Tang et al. (MICRO 2017) on it, and compare the optimized execution
// against the locality-optimized default placement on the modeled manycore.
//
// Quick start:
//
//	k := pipeline.Kernel{
//	    Name:       "vadd",
//	    Statements: "A(8*i) = B(8*i)+C(16*i)+D(8*i)+E(24*i)",
//	    Iterations: 256,
//	}
//	rep, err := pipeline.Run(k, pipeline.DefaultConfig())
//	// rep.MovementReduction(), rep.Speedup(), rep.WindowSize, ...
package pipeline

import (
	"fmt"
	"strings"
	"time"

	"dmacp/internal/baseline"
	"dmacp/internal/codegen"
	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/predictor"
	"dmacp/internal/sim"
	"dmacp/internal/verify"
)

// Kernel describes one loop nest in the statement language. Statements are
// separated by newlines or semicolons; the loop variable is i, and an
// optional outer timestep loop (variable t) re-sweeps the data.
type Kernel struct {
	// Name labels the kernel in diagnostics.
	Name string
	// Statements is the loop body source, e.g.
	// "A(i) = B(i)+C(i)\nX(i) = Y(i)+C(i)".
	Statements string
	// Iterations is the trip count of the i loop.
	Iterations int
	// Sweeps is the trip count of the outer timestep loop (default 1).
	Sweeps int
	// ArrayLen is the element count of every referenced array (default
	// 65536).
	ArrayLen int
	// Seed drives the deterministic fill of array contents (index arrays
	// for indirect accesses included).
	Seed int64
}

// Config selects the platform and optimizer settings.
type Config struct {
	// MeshCols and MeshRows size the on-chip network (default 6x6).
	MeshCols, MeshRows int
	// ClusterMode is "all-to-all", "quadrant" (default) or "snc-4".
	ClusterMode string
	// MemoryMode is "flat" (default), "cache" or "hybrid".
	MemoryMode string
	// MaxWindow bounds the adaptive statement-window search (default 8).
	MaxWindow int
	// FixedWindow, when positive, pins the window size instead.
	FixedWindow int
	// NoFuse disables the producer→consumer coarsening pre-pass
	// (internal/fusion) that merges single-consumer temporaries into their
	// consumer before the window sweep. Fusion is on by default; this is
	// the -nofuse escape hatch of the CLIs.
	NoFuse bool
	// UsePredictor enables the sampled L2 hit/miss predictor; when false the
	// compiler assumes on-chip data (default true).
	UsePredictor bool
	// IdealAnalysis gives the compiler oracle data-location knowledge.
	IdealAnalysis bool
	// Jobs bounds the worker pool the partitioner's window sweep runs on.
	// <= 0 means one worker per CPU; 1 forces serial execution. The report is
	// identical at every setting.
	Jobs int
	// Timeout bounds the fault-repair paths (`dmacp faults -timeout`): the
	// escalation ladder runs anytime against the deadline and returns the
	// best verifier-clean schedule found when it expires, or fails at stage
	// "deadline" when none exists yet. 0 means no deadline.
	Timeout time.Duration
}

// DefaultConfig mirrors the paper's evaluation platform.
func DefaultConfig() Config {
	return Config{
		MeshCols:     6,
		MeshRows:     6,
		ClusterMode:  "quadrant",
		MemoryMode:   "flat",
		MaxWindow:    8,
		UsePredictor: true,
	}
}

// Report is the outcome of Run: the partitioner's decisions plus simulated
// default-vs-optimized measurements.
type Report struct {
	Kernel string
	// WindowSize is the adaptive window the partitioner selected.
	WindowSize int
	// MovementBySize is the data movement of each trial window size.
	MovementBySize map[int]int64

	// DefaultMovement / OptimizedMovement are total on-chip link traversals
	// (Equation 1 of the paper, unit line size).
	DefaultMovement, OptimizedMovement int64
	// DefaultCycles / OptimizedCycles are the simulated execution times.
	DefaultCycles, OptimizedCycles float64
	// DefaultEnergy / OptimizedEnergy are the simulated total energies (nJ).
	DefaultEnergy, OptimizedEnergy float64
	// DefaultL1HitRate / OptimizedL1HitRate are the simulated L1 hit rates.
	DefaultL1HitRate, OptimizedL1HitRate float64

	// Parallelism is the average degree of subcomputation parallelism per
	// statement; Syncs the post-reduction synchronizations per statement.
	Parallelism float64
	Syncs       float64
	// Subcomputations is the average number of subcomputations per
	// statement.
	Subcomputations float64
	// AnalyzableFraction and PredictorAccuracy report the compile-time
	// analysis quality (Tables 1 and 2 of the paper).
	AnalyzableFraction float64
	PredictorAccuracy  float64
	// UsedInspector reports whether may-dependences required the
	// inspector–executor split.
	UsedInspector bool

	// Tasks is the number of subcomputation tasks emitted.
	Tasks int
}

// MovementReduction returns the fractional data-movement reduction over the
// default placement.
func (r *Report) MovementReduction() float64 {
	if r.DefaultMovement == 0 {
		return 0
	}
	return float64(r.DefaultMovement-r.OptimizedMovement) / float64(r.DefaultMovement)
}

// Speedup returns default cycles / optimized cycles.
func (r *Report) Speedup() float64 {
	if r.OptimizedCycles == 0 {
		return 0
	}
	return r.DefaultCycles / r.OptimizedCycles
}

// EnergySavings returns the fractional energy reduction.
func (r *Report) EnergySavings() float64 {
	if r.DefaultEnergy == 0 {
		return 0
	}
	return (r.DefaultEnergy - r.OptimizedEnergy) / r.DefaultEnergy
}

// String summarizes the report.
func (r *Report) String() string {
	return fmt.Sprintf(
		"%s: window=%d movement %d->%d (-%.1f%%), cycles %.0f->%.0f (%.2fx), energy -%.1f%%, L1 %.1f%%->%.1f%%",
		r.Kernel, r.WindowSize, r.DefaultMovement, r.OptimizedMovement, r.MovementReduction()*100,
		r.DefaultCycles, r.OptimizedCycles, r.Speedup(),
		r.EnergySavings()*100, r.DefaultL1HitRate*100, r.OptimizedL1HitRate*100)
}

// build translates the public types into the internal representation.
func build(k Kernel, cfg Config) (*ir.Program, *ir.Nest, *ir.Store, core.Options, sim.Config, error) {
	var zeroOpts core.Options
	var zeroSim sim.Config
	if k.Iterations <= 0 {
		return nil, nil, nil, zeroOpts, zeroSim, fmt.Errorf("pipeline: Kernel.Iterations must be positive")
	}
	body, err := ir.ParseStatements(k.Statements)
	if err != nil {
		return nil, nil, nil, zeroOpts, zeroSim, err
	}
	if len(body) == 0 {
		return nil, nil, nil, zeroOpts, zeroSim, fmt.Errorf("pipeline: kernel %q has no statements", k.Name)
	}
	sweeps := k.Sweeps
	if sweeps <= 0 {
		sweeps = 1
	}
	loops := []ir.Loop{{Var: "i", Lower: 0, Upper: k.Iterations, Step: 1}}
	if sweeps > 1 {
		loops = append([]ir.Loop{{Var: "t", Lower: 0, Upper: sweeps, Step: 1}}, loops...)
	}
	nest := &ir.Nest{Name: k.Name, Loops: loops, Body: body}

	arrayLen := k.ArrayLen
	if arrayLen <= 0 {
		arrayLen = 1 << 16
	}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, arrayLen, 8)
	prog.Nests = append(prog.Nests, nest)
	store := ir.NewStore(prog)
	store.FillRandom(prog, k.Seed+1)

	opts := core.DefaultOptions()
	if cfg.MeshCols > 0 && cfg.MeshRows > 0 {
		m, err := mesh.New(cfg.MeshCols, cfg.MeshRows)
		if err != nil {
			return nil, nil, nil, zeroOpts, zeroSim, err
		}
		opts.Mesh = m
		opts.Layout.L2Banks = m.Nodes()
	}
	switch cfg.ClusterMode {
	case "", "quadrant":
		opts.Mode = mesh.Quadrant
	case "all-to-all":
		opts.Mode = mesh.AllToAll
	case "snc-4", "SNC-4":
		opts.Mode = mesh.SNC4
	default:
		return nil, nil, nil, zeroOpts, zeroSim, fmt.Errorf("pipeline: unknown cluster mode %q", cfg.ClusterMode)
	}
	if cfg.MaxWindow > 0 {
		opts.MaxWindow = cfg.MaxWindow
	}
	opts.FixedWindow = cfg.FixedWindow
	opts.Fuse = !cfg.NoFuse
	opts.IdealAnalysis = cfg.IdealAnalysis
	opts.Jobs = cfg.Jobs
	if cfg.UsePredictor && !cfg.IdealAnalysis {
		opts.Predictor = predictor.MustNew(predictor.Config{
			L2TotalBytes: opts.L2BankBytes * uint64(opts.Mesh.Nodes()),
			LineBytes:    opts.Layout.LineBytes,
			Ways:         opts.L2Ways,
			SampleMod:    8,
		})
	}

	simCfg := sim.DefaultConfig(opts.Mesh)
	switch cfg.MemoryMode {
	case "", "flat":
		simCfg.MemMode = sim.Flat
	case "cache":
		simCfg.MemMode = sim.CacheMode
	case "hybrid":
		simCfg.MemMode = sim.Hybrid
	default:
		return nil, nil, nil, zeroOpts, zeroSim, fmt.Errorf("pipeline: unknown memory mode %q", cfg.MemoryMode)
	}
	return prog, nest, store, opts, simCfg, nil
}

// Run partitions the kernel, builds the default placement, simulates both,
// and returns the combined report.
func Run(k Kernel, cfg Config) (*Report, error) {
	prog, nest, store, opts, simCfg, err := build(k, cfg)
	if err != nil {
		return nil, err
	}
	def, err := baseline.Place(prog, nest, store, opts, baseline.ProfiledLocality)
	if err != nil {
		return nil, err
	}
	opt, err := core.Partition(prog, nest, store, opts)
	if err != nil {
		return nil, err
	}
	sd, err := sim.Run(def.Schedule, simCfg)
	if err != nil {
		return nil, err
	}
	so, err := sim.Run(opt.Schedule, simCfg)
	if err != nil {
		return nil, err
	}
	return &Report{
		Kernel:             nest.Name,
		WindowSize:         opt.WindowSize,
		MovementBySize:     opt.MovementBySize,
		DefaultMovement:    def.TotalMovement,
		OptimizedMovement:  opt.Stats.TotalMovement,
		DefaultCycles:      sd.Cycles,
		OptimizedCycles:    so.Cycles,
		DefaultEnergy:      sd.Energy.Total(),
		OptimizedEnergy:    so.Energy.Total(),
		DefaultL1HitRate:   sd.L1HitRate(),
		OptimizedL1HitRate: so.L1HitRate(),
		Parallelism:        opt.Stats.AvgParallelism,
		Syncs:              opt.Stats.SyncsPerStatement,
		Subcomputations:    opt.Stats.SubcomputationsPerStatement,
		AnalyzableFraction: opt.AnalyzableFraction,
		PredictorAccuracy:  opt.PredictorAccuracy,
		UsedInspector:      opt.UsedInspector,
		Tasks:              len(opt.Schedule.Tasks),
	}, nil
}

// Verify executes the kernel's statements twice from identical initial
// state — once in plain iteration order (the reference semantics) and once
// in the optimized schedule's statement order — and reports whether the
// final array contents agree. The optimized schedule preserves statement
// order per instance and never migrates final stores, so this must always
// hold; the check is what the examples use to demonstrate correctness.
func Verify(k Kernel, cfg Config) (bool, error) {
	prog, nest, store, _, _, err := build(k, cfg)
	if err != nil {
		return false, err
	}
	ref := store.Clone()
	var execErr error
	nest.ForEachIteration(func(env map[string]int) bool {
		for _, s := range nest.Body {
			if err := ref.ExecStatement(prog, s, env); err != nil {
				execErr = err
				return false
			}
		}
		return true
	})
	if execErr != nil {
		return false, execErr
	}
	// The optimized execution: same statement-instance order (windows group
	// scheduling decisions, not execution semantics; dependences are honored
	// by the sync arcs, which respect instance order).
	opt := store.Clone()
	for kth := 0; kth < nest.StatementInstances(); kth++ {
		iter := kth / len(nest.Body)
		stmt := nest.Body[kth%len(nest.Body)]
		if err := opt.ExecStatement(prog, stmt, nest.IterationEnv(iter)); err != nil {
			return false, err
		}
	}
	for _, name := range prog.ArrayNames() {
		arr := prog.Array(name)
		for i := 0; i < arr.Len; i++ {
			if ref.At(name, i) != opt.At(name, i) {
				return false, nil
			}
		}
	}
	return true, nil
}

// EmitCode partitions the kernel and renders the per-node program the
// compiler would generate (the Figure 8 view): which subcomputations run on
// which node, what each gathers and from where, the synchronizations, and
// the result transfers. maxTasksPerNode truncates each node's listing
// (0 = unlimited).
func EmitCode(k Kernel, cfg Config, maxTasksPerNode int) (string, error) {
	prog, nest, store, opts, _, err := build(k, cfg)
	if err != nil {
		return "", err
	}
	opt, err := core.Partition(prog, nest, store, opts)
	if err != nil {
		return "", err
	}
	var buf strings.Builder
	buf.WriteString("// " + codegen.Summary(opt.Schedule, opts.Mesh) + "\n")
	// Render against the body the schedule was emitted over (the fused one
	// when the coarsening pre-pass merged statements).
	err = codegen.Generate(&buf, opt.Schedule, opts.Mesh, opt.LineLabels, opt.ScheduleNest().Body,
		codegen.Options{MaxTasksPerNode: maxTasksPerNode})
	if err != nil {
		return "", err
	}
	return buf.String(), nil
}

// ScheduleCheck is the outcome of statically verifying one emitted schedule
// with the dependence-preservation verifier (internal/verify): whether every
// RAW/WAR/WAW dependence between statement instances is ordered by the task
// DAG, plus the formatted findings.
type ScheduleCheck struct {
	// Schedule names the verified schedule: "optimized" (the partitioner's)
	// or "default" (the locality-optimized baseline placement).
	Schedule string
	// Clean is true when no dependence violation was found.
	Clean bool
	// Summary is the one-line counters (tasks, instances, pairs checked,
	// violations, warnings, redundant arcs).
	Summary string
	// Diagnostics holds one formatted line per retained finding, violations
	// first; each race names the two statement instances, their tasks and
	// mesh nodes, and the contended line.
	Diagnostics []string
	// ViolationCount and WarningCount are the retained finding totals; Kinds
	// is the uncapped per-kind tally ("WAR=1 stale-reuse=3", or "none").
	ViolationCount, WarningCount int
	Kinds                        string
}

// CheckSchedules builds the kernel, emits both the partitioner's optimized
// schedule and the default placement, and runs the static schedule race
// detector over each. A non-Clean result means the named schedule can
// reorder a data dependence — the returned diagnostics are concrete
// counterexamples.
func CheckSchedules(k Kernel, cfg Config) ([]ScheduleCheck, error) {
	prog, nest, store, opts, _, err := build(k, cfg)
	if err != nil {
		return nil, err
	}
	return checkBoth(prog, nest, store, opts, func(kind string) string { return kind })
}

// checkBoth partitions nest and places it with the default strategy, then
// runs the race detector over both schedules, named label("optimized") and
// label("default"). Each schedule is checked against the nest it was
// emitted over: the partitioner's may be fused, the baseline always uses the
// original.
func checkBoth(prog *ir.Program, nest *ir.Nest, store *ir.Store, opts core.Options, label func(kind string) string) ([]ScheduleCheck, error) {
	opt, err := core.Partition(prog, nest, store, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", label("optimized"), err)
	}
	def, err := baseline.Place(prog, nest, store, opts, baseline.ProfiledLocality)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", label("default"), err)
	}
	inputs := []verify.Input{
		verify.PartitionInput(prog, store, opt, opts),
		{Prog: prog, Nest: nest, Store: store, Schedule: def.Schedule, Mesh: opts.Mesh,
			Layout: opts.Layout, Translations: def.Translations},
	}
	var out []ScheduleCheck
	for i, name := range []string{label("optimized"), label("default")} {
		rep, err := verify.Check(inputs[i], verify.Options{})
		if err != nil {
			return nil, fmt.Errorf("pipeline: verifying %s: %w", name, err)
		}
		out = append(out, ScheduleCheck{
			Schedule:       name,
			Clean:          rep.Clean(),
			Summary:        rep.Summary(),
			Diagnostics:    rep.Lines(),
			ViolationCount: len(rep.Violations),
			WarningCount:   len(rep.Warnings),
			Kinds:          rep.KindSummary(),
		})
	}
	return out, nil
}

// AnalyzeDeps runs the static dependence analysis on the kernel's body the
// way the compiler front end would: naive pairwise analysis refined with the
// GCD and Banerjee exact tests under the nest's loop bounds. It returns one
// formatted line per surviving dependence, plus a note when the
// inspector–executor path would engage.
func AnalyzeDeps(k Kernel, cfg Config) ([]string, error) {
	_, nest, _, _, _, err := build(k, cfg)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range ir.DependencesIn(nest) {
		out = append(out, d.String())
	}
	if ir.HasMayDeps(nest.Body) {
		out = append(out, "may-dependences present: inspector-executor will run")
	}
	return out, nil
}

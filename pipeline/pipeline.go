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
	"strconv"
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
	// FixedWindow, when positive, pins the window size instead.
	FixedWindow int
	// NoFuse disables the producer→consumer coarsening pre-pass
	// (internal/fusion) that merges single-consumer temporaries into their
	// consumer before the window sweep. Fusion is on by default; this is
	// the -nofuse escape hatch of the CLIs.
	NoFuse bool
	// Jobs bounds the worker pool the partitioner's window sweep runs on.
	// <= 0 means one worker per CPU; 1 forces serial execution. The report is
	// identical at every setting.
	Jobs int
	// Timeout bounds the fault-repair paths (`dmacp faults -timeout`): once
	// the deadline has expired, the incremental repair commits its greedy
	// assignment without the batched min-cost solve, and a rejected
	// incremental repair fails at stage "deadline" instead of escalating to
	// a full re-placement. 0 means no deadline.
	Timeout time.Duration
}

// DefaultConfig mirrors the paper's evaluation platform.
func DefaultConfig() Config {
	return Config{
		MeshCols:    6,
		MeshRows:    6,
		ClusterMode: "quadrant",
		MemoryMode:  "flat",
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

// String summarizes the report. Movement and energy print as signed
// changes from the default placement: a reduction reads -4.2%, a loss +5.6%.
func (r *Report) String() string {
	return fmt.Sprintf(
		"%s: window=%d movement %d->%d (%+.1f%%), cycles %.0f->%.0f (%.2fx), energy %+.1f%%, L1 %.1f%%->%.1f%%",
		r.Kernel, r.WindowSize, r.DefaultMovement, r.OptimizedMovement, -r.MovementReduction()*100,
		r.DefaultCycles, r.OptimizedCycles, r.Speedup(),
		-r.EnergySavings()*100, r.DefaultL1HitRate*100, r.OptimizedL1HitRate*100)
}

// Size limits on one kernel or application, at least 64× every shipped
// caller (dmacp's default kernel declares 7 arrays of 65,536 8-byte
// elements, 3.5 MiB, and runs 256 × 3 × 2 = 1,536 statement instances), so
// that absurd sizes fail fast with ErrBadInput instead of exhausting memory
// or running for hours. A run costs roughly 3 KB per statement instance, so
// a kernel at both limits stays near 1 GB.
const (
	// maxArrayBytes bounds the summed size of the program's arrays.
	maxArrayBytes = 1 << 28
	// maxStatementInstances bounds the statement instances of all nests:
	// for a kernel, Iterations × Sweeps × statements.
	maxStatementInstances = 1 << 18
	// maxMeshNodes bounds Config.MeshCols × MeshRows. The mesh keeps O(1)
	// words per node: dmacp's default kernel on a 2048×2048 mesh runs in
	// under 2 GB.
	maxMeshNodes = 1 << 22
	// maxFaultMeshNodes bounds the mesh of the fault paths, whose live-route
	// view is an n × n table of int32 hops: 8,192 nodes (a 90×90 mesh fits)
	// keep it at 256 MiB.
	maxFaultMeshNodes = 1 << 13
)

// productWithin reports whether the product of the non-negative factors
// stays at or below limit, without overflowing on the way.
func productWithin(limit int, factors ...int) bool {
	p := 1
	for _, f := range factors {
		if p > 0 && f > limit/p {
			return false
		}
		p *= f
	}
	return true
}

// checkSize rejects a declared program over the array-byte or
// statement-instance limit, before a store allocates its elements.
func checkSize(what string, prog *ir.Program) error {
	bytes := 0
	for _, name := range prog.ArrayNames() {
		n := prog.Array(name).Len
		if !productWithin(maxArrayBytes-bytes, n, 8) {
			return badInputf("pipeline: %s: %d arrays exceed the limit of %d array bytes (%s has %d elements)",
				what, len(prog.Arrays), maxArrayBytes, name, n)
		}
		bytes += n * 8
	}
	instances := 0
	for _, nest := range prog.Nests {
		var factors []int // loop trips, then statements
		for _, l := range nest.Loops {
			factors = append(factors, l.Trips())
		}
		factors = append(factors, len(nest.Body))
		if !productWithin(maxStatementInstances-instances, factors...) {
			return badInputf("pipeline: %s: nest %q's loop trips and statements %v exceed the limit of %d statement instances",
				what, nest.Name, factors, maxStatementInstances)
		}
		instances += nest.StatementInstances()
	}
	return nil
}

// build translates the public types into the internal representation. Every
// error it returns wraps ErrBadInput: they all reject the kernel or the
// configuration.
func build(k Kernel, cfg Config) (*ir.Program, *ir.Nest, *ir.Store, core.Options, sim.Config, error) {
	var zeroOpts core.Options
	var zeroSim sim.Config
	if k.Iterations <= 0 {
		return nil, nil, nil, zeroOpts, zeroSim, badInputf("pipeline: Kernel.Iterations must be positive")
	}
	body, err := ir.ParseStatements(k.Statements)
	if err != nil {
		return nil, nil, nil, zeroOpts, zeroSim, fmt.Errorf("%w: %w", err, ErrBadInput)
	}
	if len(body) == 0 {
		return nil, nil, nil, zeroOpts, zeroSim, badInputf("pipeline: kernel %q has no statements", k.Name)
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

	opts, simCfg, err := platform(cfg)
	if err != nil {
		return nil, nil, nil, zeroOpts, zeroSim, err
	}

	arrayLen := k.ArrayLen
	if arrayLen <= 0 {
		arrayLen = 1 << 16
	}
	prog := ir.NewProgram()
	// Declaring records array metadata only; the store allocates the
	// elements, so the size check sits between the two.
	prog.DeclareFromNest(nest, arrayLen, 8)
	prog.Nests = append(prog.Nests, nest)
	if err := checkSize("kernel "+strconv.Quote(k.Name), prog); err != nil {
		return nil, nil, nil, zeroOpts, zeroSim, err
	}
	store := ir.NewStore(prog)
	store.FillRandom(prog, k.Seed+1)
	return prog, nest, store, opts, simCfg, nil
}

// platform translates cfg's platform half — mesh, cluster mode, memory
// mode, partitioner knobs and the L2 predictor — into partitioner options
// and a simulator configuration. Every error it returns wraps ErrBadInput.
func platform(cfg Config) (core.Options, sim.Config, error) {
	opts := core.DefaultOptions()
	if cfg.MeshCols > 0 && cfg.MeshRows > 0 {
		if !productWithin(maxMeshNodes, cfg.MeshCols, cfg.MeshRows) {
			return core.Options{}, sim.Config{}, badInputf("pipeline: a %dx%d mesh exceeds the limit of %d mesh nodes",
				cfg.MeshCols, cfg.MeshRows, maxMeshNodes)
		}
		m, err := mesh.New(cfg.MeshCols, cfg.MeshRows)
		if err != nil {
			return core.Options{}, sim.Config{}, fmt.Errorf("%w: %w", err, ErrBadInput)
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
		return core.Options{}, sim.Config{}, badInputf("pipeline: unknown cluster mode %q", cfg.ClusterMode)
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
		return core.Options{}, sim.Config{}, badInputf("pipeline: unknown memory mode %q", cfg.MemoryMode)
	}

	opts.FixedWindow = cfg.FixedWindow
	opts.Fuse = !cfg.NoFuse
	opts.Jobs = cfg.Jobs
	// The compiler consults the sampled L2 hit/miss predictor (Section 4.1).
	opts.Predictor = predictor.MustNew(predictor.Config{
		L2TotalBytes: opts.L2BankBytes * uint64(opts.Mesh.Nodes()),
		LineBytes:    opts.Layout.LineBytes,
		Ways:         opts.L2Ways,
		SampleMod:    8,
	})
	return opts, simCfg, nil
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

// Verify partitions the kernel, places it with the default strategy, and
// runs the static schedule race detector over both schedules, as
// CheckSchedules does. It reports true only when every check is Clean: both
// schedules order every RAW/WAR/WAW dependence between statement instances.
// CheckSchedules returns the diagnostics when one does not.
func Verify(k Kernel, cfg Config) (bool, error) {
	checks, err := CheckSchedules(k, cfg)
	if err != nil {
		return false, err
	}
	for _, c := range checks {
		if !c.Clean {
			return false, nil
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
	err = codegen.Generate(&buf, opt.Schedule, opts.Mesh, opt.LineLabels, opt.ScheduleNest().Body, maxTasksPerNode)
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

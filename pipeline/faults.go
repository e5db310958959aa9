// Fault tolerance facade: inject a fault set into the modeled mesh, repair
// the optimized schedule through the verifier-gated degradation path, and
// report how much movement and execution time the faults cost. This is the
// `dmacp faults` subcommand's engine.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/sim"
	"dmacp/internal/verify"
	"dmacp/internal/workloads"
)

// ErrBadInput flags invalid user input — a kernel that does not parse or
// exceeds the size limits, an unknown cluster or memory mode, malformed fault
// specs, node ids outside the mesh, out-of-range arrival fractions — as
// opposed to a fault set the repair ladder gave up on. Every `dmacp`
// subcommand maps errors.Is(err, ErrBadInput) to exit code 2; `dmacp faults`
// maps unrepairable sets to exit code 1.
var ErrBadInput = errors.New("invalid input")

// badInputf builds an input-validation error wrapping ErrBadInput.
func badInputf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrBadInput)...)
}

// repairContext derives the repair ladder's context from Config.Timeout: a
// deadline when a budget was set, plain Background otherwise.
func repairContext(cfg Config) (context.Context, context.CancelFunc) {
	if cfg.Timeout > 0 {
		return context.WithTimeout(context.Background(), cfg.Timeout)
	}
	return context.Background(), func() {}
}

// FaultSpec describes the faults to inject. Random counts (Links, Routers,
// Tiles with Seed) and explicit kill lists compose: the random draw happens
// first, then the listed components are killed on top.
type FaultSpec struct {
	// Links, Routers and Tiles are counts drawn deterministically from Seed.
	Links, Routers, Tiles int
	Seed                  int64
	// ProtectMCs excludes memory-controller corners from the random draw
	// (explicit kill lists are never protected — that is how an unrepairable
	// mesh is demonstrated).
	ProtectMCs bool
	// KillLinks lists explicit dead links as "a-b,c-d" node-id pairs;
	// KillRouters and KillTiles list explicit node ids as "n,m,...".
	KillLinks   string
	KillRouters string
	KillTiles   string
}

// Build materializes the spec against a mesh.
func (s FaultSpec) Build(m *mesh.Mesh) (*mesh.FaultSet, error) {
	f := mesh.Inject(m, s.Seed, s.Links, s.Routers, s.Tiles, s.ProtectMCs)
	if s.KillLinks != "" {
		for _, pair := range strings.Split(s.KillLinks, ",") {
			a, b, ok := strings.Cut(strings.TrimSpace(pair), "-")
			if !ok {
				return nil, badInputf("pipeline: bad link %q (want \"a-b\")", pair)
			}
			an, err1 := strconv.Atoi(strings.TrimSpace(a))
			bn, err2 := strconv.Atoi(strings.TrimSpace(b))
			if err1 != nil || err2 != nil {
				return nil, badInputf("pipeline: bad link %q (want \"a-b\")", pair)
			}
			if !m.Valid(mesh.NodeID(an)) || !m.Valid(mesh.NodeID(bn)) || m.Distance(mesh.NodeID(an), mesh.NodeID(bn)) != 1 {
				return nil, badInputf("pipeline: %q is not a physical link of the %dx%d mesh", pair, m.Cols(), m.Rows())
			}
			f.KillLink(mesh.NodeID(an), mesh.NodeID(bn))
		}
	}
	kill := func(list string, apply func(mesh.NodeID)) error {
		if list == "" {
			return nil
		}
		for _, tok := range strings.Split(list, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || !m.Valid(mesh.NodeID(n)) {
				return badInputf("pipeline: bad node id %q", tok)
			}
			apply(mesh.NodeID(n))
		}
		return nil
	}
	if err := kill(s.KillRouters, f.KillRouter); err != nil {
		return nil, err
	}
	if err := kill(s.KillTiles, f.KillTile); err != nil {
		return nil, err
	}
	return f, nil
}

// FaultReport is the outcome of RunFaults: what died, what the repair did,
// and the measured degradation of the optimized schedule.
type FaultReport struct {
	Kernel string
	// Faults describes the injected fault set.
	Faults string
	// DeadNodes lists the nodes whose tasks were migrated away.
	DeadNodes []int
	// Repair counters (see core.RepairReport).
	Migrated, RehomedFetches int
	AddedArcs, RemovedArcs   int
	FullRepartition          bool
	// BaseMovement / FaultMovement are bytes x hops before and after.
	BaseMovement, FaultMovement int64
	// BaseCycles / FaultCycles and the average network latencies measure the
	// simulated degradation.
	BaseCycles, FaultCycles               float64
	BaseAvgNetLatency, FaultAvgNetLatency float64
	// VerifySummary is the race detector's headline counters for the
	// repaired schedule (always zero violations — RunFaults fails otherwise).
	VerifySummary string
}

// MovementDegradation returns FaultMovement/BaseMovement - 1.
func (r *FaultReport) MovementDegradation() float64 {
	if r.BaseMovement == 0 {
		return 0
	}
	return float64(r.FaultMovement)/float64(r.BaseMovement) - 1
}

// Slowdown returns FaultCycles/BaseCycles.
func (r *FaultReport) Slowdown() float64 {
	if r.BaseCycles == 0 {
		return 0
	}
	return r.FaultCycles / r.BaseCycles
}

// String summarizes the report.
func (r *FaultReport) String() string {
	return fmt.Sprintf("%s: %s; %d migrated, movement %d->%d (%+.1f%%), cycles %.0f->%.0f (%.2fx slowdown)",
		r.Kernel, r.Faults, r.Migrated, r.BaseMovement, r.FaultMovement,
		r.MovementDegradation()*100, r.BaseCycles, r.FaultCycles, r.Slowdown())
}

// faultRun is the setup RunFaults and RunFaultsOnline share: the built
// kernel partitioned on the pristine mesh, its pristine simulation, the
// injected fault set, and the verifier input that gates every repair
// candidate against the degraded mesh.
type faultRun struct {
	kernel  string
	spec    FaultSpec
	f       *mesh.FaultSet
	opts    core.Options
	ro      core.RepairOptions
	simCfg  sim.Config
	opt     *core.Result
	baseSim *sim.Result
	in      verify.Input
}

// setupFaults builds the kernel, materializes the fault spec (online mode
// refuses an empty set), partitions and simulates the pristine run.
func setupFaults(k Kernel, cfg Config, spec FaultSpec, online bool) (*faultRun, error) {
	prog, nest, store, opts, simCfg, err := build(k, cfg)
	if err != nil {
		return nil, err
	}
	if n := opts.Mesh.Nodes(); n > maxFaultMeshNodes {
		return nil, badInputf("pipeline: a %dx%d mesh exceeds the fault paths' limit of %d mesh nodes",
			opts.Mesh.Cols(), opts.Mesh.Rows(), maxFaultMeshNodes)
	}
	f, err := spec.Build(opts.Mesh)
	if err != nil {
		return nil, err
	}
	if online && f.Empty() {
		return nil, badInputf("pipeline: online mode needs a non-empty fault set (use -links/-tiles/-kill-*)")
	}
	opt, err := core.Partition(prog, nest, store, opts)
	if err != nil {
		return nil, err
	}
	baseSim, err := sim.Run(opt.Schedule, simCfg)
	if err != nil {
		return nil, err
	}
	in := verify.PartitionInput(prog, store, opt, opts)
	in.Faults = f
	return &faultRun{kernel: nest.Name, spec: spec, f: f, opts: opts,
		ro: core.RepairOptions{LoadThreshold: opts.LoadThreshold}, simCfg: simCfg,
		opt: opt, baseSim: baseSim, in: in}, nil
}

// summarizingChecker is verify.Checker(in) that also keeps, in summary, the
// report summary of the last candidate it passed. The repair ladder returns
// on its first clean attempt, so once a repair is accepted that is the
// summary of the returned schedule.
func summarizingChecker(in verify.Input, summary *string) core.RepairChecker {
	return func(s *core.Schedule) error {
		in.Schedule = s
		rep, err := verify.Check(in, verify.Options{})
		if err == nil {
			if err = rep.Err(); err == nil {
				*summary = rep.Summary()
			}
		}
		return err
	}
}

// unrepairable builds the failure diagnostic for a fault set the escalation
// ladder gave up on: the injection seed, the dead-element list, and the
// stage (repair / verify-reject / re-place / re-place-verify-reject /
// deadline) that failed.
func (r *faultRun) unrepairable(what string, err error) error {
	stage := "repair"
	var rf *core.RepairFailure
	if errors.As(err, &rf) {
		stage = rf.Stage
	}
	return fmt.Errorf("pipeline: fault set (seed %d) %s is unrepairable for %q: failed at stage %s: %w",
		r.spec.Seed, r.f, what, stage, err)
}

// degradedSim simulates s on the faulted mesh, resuming from nodeFree when
// it is set.
func (r *faultRun) degradedSim(s *core.Schedule, nodeFree []float64) (*sim.Result, error) {
	c := r.simCfg
	c.Faults = r.f
	c.NodeFreeAt = nodeFree
	return sim.Run(s, c)
}

// RunFaults partitions the kernel, injects the fault set, repairs the
// optimized schedule through the verifier-gated path (incremental migration,
// escalating to a full re-placement), and simulates the pristine and
// degraded executions. It returns an error — and no schedule — when the
// fault set is unrepairable (no surviving memory controller, a partitioned
// placement region, or a repair the race detector refutes twice).
func RunFaults(k Kernel, cfg Config, spec FaultSpec) (*FaultReport, error) {
	r, err := setupFaults(k, cfg, spec, false)
	if err != nil {
		return nil, err
	}
	ctx, cancel := repairContext(cfg)
	defer cancel()
	var summary string
	repaired, rep, err := core.RepairVerifiedCtx(ctx, r.opt.Schedule, r.opts.Mesh, r.f, r.ro, summarizingChecker(r.in, &summary))
	if err != nil {
		return nil, r.unrepairable(r.kernel, err)
	}
	faultSim, err := r.degradedSim(repaired, nil)
	if err != nil {
		return nil, fmt.Errorf("pipeline: degraded simulation rejected the repaired schedule: %w", err)
	}

	out := &FaultReport{
		Kernel:             r.kernel,
		Faults:             r.f.String(),
		Migrated:           rep.Migrated,
		RehomedFetches:     rep.RehomedFetches,
		AddedArcs:          rep.AddedArcs,
		RemovedArcs:        rep.RemovedArcs,
		FullRepartition:    rep.Full,
		BaseMovement:       rep.MovementBefore,
		FaultMovement:      rep.MovementAfter,
		BaseCycles:         r.baseSim.Cycles,
		FaultCycles:        faultSim.Cycles,
		BaseAvgNetLatency:  r.baseSim.AvgNetLatency,
		FaultAvgNetLatency: faultSim.AvgNetLatency,
		VerifySummary:      summary,
	}
	for _, n := range rep.DeadNodes {
		out.DeadNodes = append(out.DeadNodes, int(n))
	}
	return out, nil
}

// OnlineFaultReport is the outcome of RunFaultsOnline: the checkpoint cut,
// the migration bill, and the accepted residual repair compared against
// re-partitioning from scratch.
type OnlineFaultReport struct {
	Kernel string
	Faults string
	// ArrivalCycle is when the fault struck (ArrivalFrac x pristine makespan).
	ArrivalCycle float64
	// Checkpoint split and discarded in-flight work.
	CompletedTasks, ResidualTasks, InFlightTasks int
	// Migration accounting: live state moved off dead/cut-off nodes.
	SpilledL1Lines, RehomedPages int
	MigrationTraffic             int64
	// Residual DAG surgery counters.
	DroppedArcs, ConvertedFetches int
	// Accepted repair: tasks migrated, the assignment that won
	// ("mincost"/"greedy"/"none"), and whether escalation re-placed fully.
	Migrated        int
	Strategy        string
	FullRepartition bool
	// BaseMovement is the pristine full-schedule movement; ResidualMovement
	// the repaired residual's movement on the degraded mesh; ScratchMovement
	// what re-partitioning the whole schedule from scratch would move.
	BaseMovement, ResidualMovement, ScratchMovement int64
	// BaseCycles is the pristine makespan; ResumeCycles the residual's
	// simulated finish when resumed from the checkpointed node horizons on
	// the degraded mesh.
	BaseCycles, ResumeCycles float64
	VerifySummary            string
}

// OnlineTotal is the re-repair path's total bill: migration plus residual
// movement.
func (r *OnlineFaultReport) OnlineTotal() int64 {
	return r.MigrationTraffic + r.ResidualMovement
}

// String summarizes the report.
func (r *OnlineFaultReport) String() string {
	return fmt.Sprintf("%s: %s at cycle %.0f; %d done / %d residual tasks, migration %d, residual movement %d (scratch %d)",
		r.Kernel, r.Faults, r.ArrivalCycle, r.CompletedTasks, r.ResidualTasks,
		r.MigrationTraffic, r.ResidualMovement, r.ScratchMovement)
}

// RunFaultsOnline is the mid-run arrival variant of RunFaults: the fault set
// strikes at arrivalFrac x the pristine makespan. The pristine run is
// checkpointed at the arrival cycle, the residual schedule (pending plus
// stranded in-flight tasks) is re-repaired through the verifier-gated ladder
// with batched min-cost migration, migration traffic is charged for the live
// state on dead nodes, and the accepted residual is re-simulated on the
// degraded mesh resuming from the checkpointed node horizons. The report
// also carries the re-partition-from-scratch movement for comparison.
func RunFaultsOnline(k Kernel, cfg Config, spec FaultSpec, arrivalFrac float64) (*OnlineFaultReport, error) {
	if arrivalFrac <= 0 || arrivalFrac >= 1 {
		return nil, badInputf("pipeline: arrival fraction %v outside (0, 1)", arrivalFrac)
	}
	r, err := setupFaults(k, cfg, spec, true)
	if err != nil {
		return nil, err
	}
	pristine, err := core.MovementOn(r.opt.Schedule, r.opts.Mesh, nil)
	if err != nil {
		return nil, err
	}

	evCfg := r.simCfg
	evCfg.FaultEvents = []sim.FaultEvent{{Cycle: arrivalFrac * r.baseSim.Cycles, Faults: r.f}}
	evSim, err := sim.Run(r.opt.Schedule, evCfg)
	if err != nil {
		return nil, err
	}
	ck := evSim.Checkpoints[0]

	residualIn := r.in
	residualIn.Completed = ck.CompletedInstances(r.opt.Schedule)
	ctx, cancel := repairContext(cfg)
	defer cancel()
	var summary string
	residual, orep, err := core.RepairOnlineCtx(ctx, r.opt.Schedule, ck, r.opts.Mesh, r.f, r.ro, summarizingChecker(residualIn, &summary))
	if err != nil {
		return nil, r.unrepairable(r.kernel, err)
	}

	// Scratch baseline: throw the checkpoint away and re-place everything.
	full := r.ro
	full.Full = true
	_, srep, err := core.RepairVerifiedCtx(ctx, r.opt.Schedule, r.opts.Mesh, r.f, full, verify.Checker(r.in))
	if err != nil {
		return nil, r.unrepairable(r.kernel+" (scratch baseline)", err)
	}

	resumeSim, err := r.degradedSim(residual, ck.NodeFree)
	if err != nil {
		return nil, fmt.Errorf("pipeline: degraded simulation rejected the accepted residual: %w", err)
	}

	return &OnlineFaultReport{
		Kernel:           r.kernel,
		Faults:           r.f.String(),
		ArrivalCycle:     evCfg.FaultEvents[0].Cycle,
		CompletedTasks:   orep.CompletedTasks,
		ResidualTasks:    orep.ResidualTasks,
		InFlightTasks:    orep.InFlightTasks,
		SpilledL1Lines:   orep.SpilledL1Lines,
		RehomedPages:     orep.RehomedPages,
		MigrationTraffic: orep.MigrationTraffic,
		DroppedArcs:      orep.DroppedArcs,
		ConvertedFetches: orep.ConvertedFetches,
		Migrated:         orep.Repair.Migrated,
		Strategy:         orep.Repair.Strategy,
		FullRepartition:  orep.Repair.Full,
		BaseMovement:     pristine,
		ResidualMovement: orep.Repair.MovementAfter,
		ScratchMovement:  srep.MovementAfter,
		BaseCycles:       r.baseSim.Cycles,
		ResumeCycles:     resumeSim.Cycles,
		VerifySummary:    summary,
	}, nil
}

// WorkloadNames lists the 12 shipped applications, for `dmacp verify -app`.
func WorkloadNames() []string { return workloads.Names() }

// CheckAppSchedules builds one of the shipped applications at the given
// scale (iters/elems <= 0 pick the evaluation default) and runs the static
// race detector over the optimized and default schedules of every nest,
// named "App/nest (optimized)" and "App/nest (default)".
func CheckAppSchedules(app string, iters, elems int, cfg Config) ([]ScheduleCheck, error) {
	sc := workloads.DefaultScale()
	if iters > 0 {
		sc.Iters = iters
	}
	if elems > 0 {
		sc.Elems = elems
	}
	opts, _, err := platform(cfg)
	if err != nil {
		return nil, err
	}
	a, err := workloads.Declare(app, sc)
	if err != nil {
		return nil, err
	}
	if err := checkSize("application "+app, a.Prog); err != nil {
		return nil, err
	}
	a.Allocate()
	var out []ScheduleCheck
	for _, nest := range a.Nests {
		checks, err := checkBoth(a.Prog, nest, a.Store, opts, func(kind string) string {
			return nest.Name + " (" + kind + ")"
		})
		if err != nil {
			return nil, err
		}
		out = append(out, checks...)
	}
	return out, nil
}

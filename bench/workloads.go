package main

import (
	"fmt"
	"math/rand"
	"strings"

	"dmacp/internal/baseline"
	"dmacp/internal/core"
	"dmacp/internal/fusion"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/predictor"
	"dmacp/internal/sim"
	"dmacp/internal/verify"
	"dmacp/internal/workloads"
)

// params sizes one workload's inputs.
type params struct {
	// apps takes the leading applications of the 12-app suite, built at
	// scale, for the workloads that run the paper's nests.
	apps  int
	scale workloads.Scale
	// side is the mesh's width and height.
	side int
	// kernels, iterLo, iterSpan and elems size the generated kernel stream:
	// trip counts run from iterLo to iterLo+iterSpan-1.
	kernels, iterLo, iterSpan, elems int
}

// workload is one benchmark input set. full is what the command runs; tiny
// keeps the package's tests to seconds.
type workload struct {
	name       string
	full, tiny params
	setup      func(cfg config, p params, tr *tracer) (*fixture, error)
}

var catalog = []workload{
	{
		name:  "suite-compile",
		full:  params{apps: 12, scale: workloads.DefaultScale(), side: 6},
		tiny:  params{apps: 2, scale: workloads.TestScale(), side: 6},
		setup: setupSuite,
	},
	{
		name:  "kernel-stream",
		full:  params{side: 6, kernels: 400, iterLo: 32, iterSpan: 96, elems: 4096},
		tiny:  params{side: 6, kernels: 10, iterLo: 8, iterSpan: 8, elems: 1024},
		setup: setupKernels,
	},
	{
		name:  "online-repair",
		full:  params{apps: 12, scale: workloads.DefaultScale(), side: 6},
		tiny:  params{apps: 1, scale: workloads.TestScale(), side: 6},
		setup: setupOnline,
	},
	{
		name:  "mesh-32x32",
		full:  params{apps: 12, scale: workloads.Scale{Iters: 64, Elems: 1 << 14}, side: 32},
		tiny:  params{apps: 2, scale: workloads.TestScale(), side: 8},
		setup: setupSuite,
	},
}

// outcome is what one op produced for one input: the emitted schedule's
// quality and the per-layer counts. Every layer is deterministic, so every
// op on one input must produce an identical outcome.
type outcome struct {
	// movement is bytes×hops in line-sized units; cycles the simulated
	// makespan of the emitted schedule.
	movement int64
	cycles   float64

	instances, tasks, syncsBefore, syncsAfter int
	windowTrials, mergedStmts, depsChecked    int
	transfers, hops, l1Hits, l1Refs           int64
	syncStall                                 float64
	migrated, residual                        int
	full, mincost                             bool
}

func (o *outcome) addSim(r *sim.Result) {
	o.cycles += r.Cycles
	o.transfers += r.Transfers
	o.hops += r.HopsTotal
	o.l1Hits += r.L1Hits
	o.l1Refs += r.L1Refs
	o.syncStall += r.SyncStall
}

// result is an op's output before it is checked.
type result interface {
	// check validates the output outside the op's latency and returns the
	// op's outcome.
	check(tr *tracer) (outcome, error)
	// probe re-runs part of the op with one setting changed, to price a
	// layer's choices. Traced runs only.
	probe(tr *tracer) error
}

// fixture is a set-up workload: named inputs and the op run on each.
type fixture struct {
	inputs []string
	scale  string
	op     func(tr *tracer, i int) (result, error)
}

// platform is the modeled chip and the options every op compiles with.
type platform struct {
	opts   core.Options
	simCfg sim.Config
}

// newPlatform builds a side×side mesh with the evaluation's options:
// quadrant mode, adaptive windows 1..8, fusion on, and the L2 predictor
// configured as exp.NewRunner configures it (Table 2).
func newPlatform(side, jobs int) (*platform, error) {
	m, err := mesh.New(side, side)
	if err != nil {
		return nil, err
	}
	// Build the O(N²) distance table now, so it is set-up cost, not op cost.
	_ = m.DistanceTable()
	opts := core.DefaultOptions()
	opts.Mesh = m
	opts.Layout.L2Banks = m.Nodes()
	opts.Jobs = jobs
	opts.Predictor, err = predictor.New(predictor.Config{
		L2TotalBytes: opts.L2BankBytes * uint64(m.Nodes()),
		LineBytes:    opts.Layout.LineBytes,
		Ways:         opts.L2Ways,
		SampleMod:    8,
	})
	if err != nil {
		return nil, err
	}
	return &platform{opts: opts, simCfg: sim.DefaultConfig(m)}, nil
}

// setupPlatform builds the platform inside a setup.mesh span.
func setupPlatform(tr *tracer, p params, cfg config) (*platform, error) {
	return traced(tr, "setup.mesh", func() (*platform, error) { return newPlatform(p.side, cfg.jobs) })
}

// nestInput is one loop nest with the program and store it reads.
type nestInput struct {
	prog  *ir.Program
	nest  *ir.Nest
	store *ir.Store
}

// suiteNests builds the leading p.apps applications.
func suiteNests(tr *tracer, p params) ([]nestInput, []string, error) {
	id := tr.begin("setup.inputs")
	defer tr.end(id)
	var ins []nestInput
	var names []string
	for _, name := range workloads.Names()[:p.apps] {
		app, err := workloads.Build(name, p.scale)
		if err != nil {
			return nil, nil, err
		}
		for _, n := range app.Nests {
			ins = append(ins, nestInput{prog: app.Prog, nest: n, store: app.Store})
			names = append(names, n.Name)
		}
	}
	return ins, names, nil
}

func suiteScale(p params, nests int) string {
	return fmt.Sprintf("%d nests, %d iters, %d elems, %dx%d mesh", nests, p.scale.Iters, p.scale.Elems, p.side, p.side)
}

// setupSuite serves suite-compile and mesh-32x32: the compile op over the
// suite's nests.
func setupSuite(cfg config, p params, tr *tracer) (*fixture, error) {
	ins, names, err := suiteNests(tr, p)
	if err != nil {
		return nil, err
	}
	pl, err := setupPlatform(tr, p, cfg)
	if err != nil {
		return nil, err
	}
	return &fixture{
		inputs: names,
		scale:  suiteScale(p, len(ins)),
		op: func(tr *tracer, i int) (result, error) {
			c, err := compile(tr, pl, ins[i])
			if err != nil {
				return nil, err
			}
			return c, nil
		},
	}, nil
}

// compiled is the compile op's output.
type compiled struct {
	pl  *platform
	in  nestInput
	opt *core.Result
	out outcome
}

// compile is the compile op: what `dmacp` and `dmacp verify` do for one
// nest. It partitions the nest, places the default schedule, verifies the
// optimized schedule, and simulates both.
func compile(tr *tracer, pl *platform, in nestInput) (*compiled, error) {
	opt, err := traced(tr, "core.Partition", func() (*core.Result, error) {
		return core.Partition(in.prog, in.nest, in.store, pl.opts)
	})
	if err != nil {
		return nil, err
	}
	def, err := traced(tr, "baseline.Place", func() (*baseline.Result, error) {
		return baseline.Place(in.prog, in.nest, in.store, pl.opts, baseline.ProfiledLocality)
	})
	if err != nil {
		return nil, err
	}
	rep, err := traced(tr, "verify.Check", func() (*verify.Report, error) {
		return verify.Check(verify.Input{
			Prog: in.prog, Nest: opt.ScheduleNest(), Store: in.store,
			Schedule: opt.Schedule, Mesh: pl.opts.Mesh, Layout: pl.opts.Layout,
			Translations: opt.Translations, Labels: opt.LineLabels,
		}, verify.Options{})
	})
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	simOpt, err := traced(tr, "sim.Run", func() (*sim.Result, error) { return sim.Run(opt.Schedule, pl.simCfg) })
	if err != nil {
		return nil, fmt.Errorf("simulating the optimized schedule: %w", err)
	}
	if _, err := traced(tr, "sim.Run", func() (*sim.Result, error) { return sim.Run(def.Schedule, pl.simCfg) }); err != nil {
		return nil, fmt.Errorf("simulating the default schedule: %w", err)
	}
	c := &compiled{pl: pl, in: in, opt: opt}
	c.out = outcome{
		movement:     opt.Stats.TotalMovement,
		instances:    opt.Stats.Instances,
		tasks:        len(opt.Schedule.Tasks),
		syncsBefore:  opt.Schedule.SyncsBefore,
		syncsAfter:   opt.Schedule.SyncsAfter,
		windowTrials: len(opt.MovementBySize),
		mergedStmts:  len(in.nest.Body) - len(opt.ScheduleNest().Body),
		depsChecked:  rep.DepsChecked,
	}
	c.out.addSim(simOpt)
	return c, nil
}

func (c *compiled) check(*tracer) (outcome, error) { return c.out, nil }

// probe prices the window sweep, by partitioning again at the chosen window
// alone, and the fusion pre-pass, by running it alone.
func (c *compiled) probe(tr *tracer) error {
	fixed := c.pl.opts
	fixed.FixedWindow = c.opt.WindowSize
	if _, err := traced(tr, "probe.fixed_window", func() (*core.Result, error) {
		return core.Partition(c.in.prog, c.in.nest, c.in.store, fixed)
	}); err != nil {
		return err
	}
	lim := fusion.Limits{L1Bytes: fixed.L1Bytes, LineBytes: fixed.Layout.LineBytes}
	_, err := traced(tr, "probe.coarsen", func() (*fusion.Result, error) {
		return fusion.Coarsen(c.in.prog, c.in.nest, lim), nil
	})
	return err
}

// kernel is one generated kernel of the stream, kept as source text: the op
// parses it.
type kernel struct {
	src   string
	iters int
	fill  int64
}

// kernelSource draws the k-th kernel: 2-6 statements over six arrays with
// strides {1,2,8,16}, one reference in six indirect through IX, and one
// statement in six a scalar accumulator. The shape (statement count,
// references per statement, which references are indirect and which
// statements accumulate) cycles with k, so every seed gets the same mix and
// runs of different seeds do comparable work; the seed draws the arrays,
// strides, offsets and operators.
func kernelSource(rng *rand.Rand, k int) string {
	arrays := []string{"A", "B", "C", "D", "E", "F"}
	strides := []int{1, 2, 8, 16}
	ops := []string{"+", "-", "*"}
	refs := k
	ref := func() string {
		a := arrays[rng.Intn(len(arrays))]
		s := strides[rng.Intn(len(strides))]
		refs++
		if refs%6 == 0 {
			return fmt.Sprintf("%s(IX(%d*i))", a, s)
		}
		return fmt.Sprintf("%s(%d*i+%d)", a, s, rng.Intn(16))
	}
	var b strings.Builder
	for s := 0; s < 2+k%5; s++ {
		rhs := ref()
		for t := 1 + (k+s)%3; t > 0; t-- {
			rhs += ops[rng.Intn(len(ops))] + ref()
		}
		lhs := arrays[rng.Intn(len(arrays))]
		if (k+s)%6 == 0 {
			fmt.Fprintf(&b, "%s(0) = %s(0)+%s\n", lhs, lhs, rhs)
		} else {
			fmt.Fprintf(&b, "%s(%d*i+%d) = %s\n", lhs, strides[rng.Intn(len(strides))], rng.Intn(16), rhs)
		}
	}
	return b.String()
}

// kernelSweeps is the outer timestep loop's trip count.
const kernelSweeps = 2

// setupKernels serves kernel-stream: seeded kernels submitted as source,
// each parsed, built and then compiled by the op.
func setupKernels(cfg config, p params, tr *tracer) (*fixture, error) {
	id := tr.begin("setup.inputs")
	rng := rand.New(rand.NewSource(cfg.seed))
	ks := make([]kernel, p.kernels)
	names := make([]string, p.kernels)
	for k := range ks {
		// 37 is coprime to every span used, so trip counts cycle through
		// the whole range.
		ks[k] = kernel{src: kernelSource(rng, k), iters: p.iterLo + k*37%p.iterSpan, fill: rng.Int63()}
		names[k] = fmt.Sprintf("kernel %d", k)
	}
	tr.end(id)
	pl, err := setupPlatform(tr, p, cfg)
	if err != nil {
		return nil, err
	}
	return &fixture{
		inputs: names,
		scale: fmt.Sprintf("%d kernels, %d-%d iters, %d sweeps, %d elems, %dx%d mesh",
			p.kernels, p.iterLo, p.iterLo+p.iterSpan-1, kernelSweeps, p.elems, p.side, p.side),
		op: func(tr *tracer, i int) (result, error) {
			k := ks[i]
			body, err := traced(tr, "ir.parse", func() ([]*ir.Statement, error) { return ir.ParseStatements(k.src) })
			if err != nil {
				return nil, err
			}
			id := tr.begin("ir.build")
			in := buildKernel(names[i], body, k.iters, p.elems, k.fill)
			tr.end(id)
			c, err := compile(tr, pl, in)
			if err != nil {
				return nil, err
			}
			return c, nil
		},
	}, nil
}

// buildKernel wraps a parsed kernel body in its loops, declares its arrays
// and fills its store, as pipeline.Run does for a user's kernel.
func buildKernel(name string, body []*ir.Statement, iters, elems int, fill int64) nestInput {
	nest := &ir.Nest{
		Name: name,
		Loops: []ir.Loop{
			{Var: "t", Lower: 0, Upper: kernelSweeps, Step: 1},
			{Var: "i", Lower: 0, Upper: iters, Step: 1},
		},
		Body: body,
	}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, elems, 8)
	prog.Nests = append(prog.Nests, nest)
	store := ir.NewStore(prog)
	store.FillRandom(prog, fill)
	return nestInput{prog: prog, nest: nest, store: store}
}

// faultLevels and arrivalFracs are exp.OnlineSweep's defaults: how much
// breaks, and when, as a share of the pristine makespan.
var (
	faultLevels  = []struct{ links, tiles int }{{1, 0}, {2, 0}, {3, 0}, {3, 1}, {3, 2}}
	arrivalFracs = []float64{0.25, 0.5, 0.75}
)

// faultSeedsPerNest is how many fault draws each nest gets.
const faultSeedsPerNest = 2

// faultEvent is one mid-run fault arrival on one partitioned nest.
type faultEvent struct {
	name   string
	part   *partitioned
	faults *mesh.FaultSet
	ck     *core.Checkpoint
}

// partitioned is a nest with its optimized schedule.
type partitioned struct {
	in  nestInput
	res *core.Result
}

// setupOnline serves online-repair. Set-up partitions every nest and, per
// fault draw, cuts one checkpoint per (level, arrival) event with a single
// instrumented simulation, as exp.OnlineSweep does; the op repairs one
// event's residual schedule.
func setupOnline(cfg config, p params, tr *tracer) (*fixture, error) {
	ins, names, err := suiteNests(tr, p)
	if err != nil {
		return nil, err
	}
	pl, err := setupPlatform(tr, p, cfg)
	if err != nil {
		return nil, err
	}
	id := tr.begin("setup.precompute")
	defer tr.end(id)
	m := pl.opts.Mesh
	byNest := make([][]faultEvent, len(ins))
	for k, in := range ins {
		res, err := core.Partition(in.prog, in.nest, in.store, pl.opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[k], err)
		}
		part := &partitioned{in: in, res: res}
		base, err := sim.Run(res.Schedule, pl.simCfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[k], err)
		}
		for j := 0; j < faultSeedsPerNest; j++ {
			seed := cfg.seed*1_000_003 + int64(k)*7_919 + int64(j)*104_729
			evCfg := pl.simCfg
			first := len(byNest[k])
			for _, lvl := range faultLevels {
				// Every level draws from the same seed, so the fault sets nest.
				fs := mesh.Inject(m, seed, lvl.links, 0, lvl.tiles, true)
				for _, frac := range arrivalFracs {
					evCfg.FaultEvents = append(evCfg.FaultEvents, sim.FaultEvent{Cycle: frac * base.Cycles, Faults: fs})
					byNest[k] = append(byNest[k], faultEvent{
						name: fmt.Sprintf("%s faults=%dL/%dT seed=%d at=%.2f", names[k], lvl.links, lvl.tiles, seed, frac),
						part: part, faults: fs,
					})
				}
			}
			run, err := sim.Run(res.Schedule, evCfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", names[k], err)
			}
			for e, ck := range run.Checkpoints {
				byNest[k][first+e].ck = ck
			}
		}
	}
	// Interleave the nests, so any prefix of the event list, which is what a
	// short run reaches, mixes every nest and fault level.
	var events []faultEvent
	var inputs []string
	for e := range byNest[0] {
		for k := range byNest {
			events = append(events, byNest[k][e])
			inputs = append(inputs, byNest[k][e].name)
		}
	}
	return &fixture{
		inputs: inputs,
		scale:  fmt.Sprintf("%d events over %s", len(events), suiteScale(p, len(ins))),
		op: func(tr *tracer, i int) (result, error) {
			r := &repaired{pl: pl, ev: events[i]}
			var err error
			r.sched, r.rep, r.deps, err = r.repair(tr, "core.RepairOnline", core.AssignAuto)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
	}, nil
}

// repaired is the online-repair op's output.
type repaired struct {
	pl    *platform
	ev    faultEvent
	sched *core.Schedule
	rep   *core.OnlineReport
	deps  int
}

// repair runs core.RepairOnline on the event in a span named name, gated by
// exp.OnlineSweep's verifier checker. The span also covers the checkpoint's
// completed-instance predicate the checker needs. It returns the accepted
// residual schedule and the dependence pairs the gate checked.
func (r *repaired) repair(tr *tracer, name string, strategy core.AssignStrategy) (*core.Schedule, *core.OnlineReport, int, error) {
	part, ev, opts := r.ev.part, r.ev, r.pl.opts
	id := tr.begin(name)
	defer tr.end(id)
	completed := ev.ck.CompletedInstances(part.res.Schedule)
	deps := 0
	checker := func(s *core.Schedule) error {
		rep, err := traced(tr, "verify.Check", func() (*verify.Report, error) {
			return verify.Check(verify.Input{
				Prog: part.in.prog, Nest: part.res.ScheduleNest(), Store: part.in.store,
				Schedule: s, Mesh: opts.Mesh, Faults: ev.faults,
				Layout: opts.Layout, Translations: part.res.Translations,
				Labels: part.res.LineLabels, Completed: completed,
			}, verify.Options{})
		})
		if err != nil {
			return err
		}
		deps += rep.DepsChecked
		return rep.Err()
	}
	ro := core.RepairOptions{LoadThreshold: opts.LoadThreshold, Strategy: strategy}
	sched, rep, err := core.RepairOnline(part.res.Schedule, ev.ck, opts.Mesh, ev.faults, ro, checker)
	return sched, rep, deps, err
}

// check runs the accepted residual on the degraded mesh, resuming from the
// checkpoint's node horizons: the simulator rejects a residual that still
// touches a dead element.
func (r *repaired) check(tr *tracer) (outcome, error) {
	cfg := r.pl.simCfg
	cfg.Faults = r.ev.faults
	cfg.NodeFreeAt = r.ev.ck.NodeFree
	res, err := traced(tr, "sim.Run", func() (*sim.Result, error) { return sim.Run(r.sched, cfg) })
	if err != nil {
		return outcome{}, fmt.Errorf("degraded simulation rejected the accepted residual: %w", err)
	}
	out := outcome{
		movement:    r.rep.MigrationTraffic + r.rep.Repair.MovementAfter,
		depsChecked: r.deps,
		migrated:    r.rep.Repair.Migrated,
		residual:    r.rep.ResidualTasks,
		full:        r.rep.Repair.Full,
		mincost:     r.rep.Repair.Strategy == core.AssignMinCost.String(),
	}
	out.addSim(res)
	return out, nil
}

// probe prices AssignAuto's best-of: it repairs the event again with each
// strategy forced.
func (r *repaired) probe(tr *tracer) error {
	if _, _, _, err := r.repair(tr, "probe.greedy", core.AssignGreedy); err != nil {
		return err
	}
	_, _, _, err := r.repair(tr, "probe.mincost", core.AssignMinCost)
	return err
}

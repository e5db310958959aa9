// Command dmacp runs the data-movement-aware computation partitioner on a
// kernel given on the command line and prints the optimization report:
// chosen statement window, data-movement reduction, simulated speedup,
// energy savings and L1 behaviour versus the locality-optimized default
// placement.
//
// Example:
//
//	dmacp -stmts "A(8*i) = B(8*i)+C(16*i)+D(8*i)+E(24*i); X(8*i) = Y(8*i)+C(16*i)" -iters 256 -sweeps 3
//
// The verify subcommand runs the static schedule race detector instead: it
// emits both the optimized and the default schedule for the kernel and
// proves — or refutes with a concrete counterexample — that every data
// dependence between statement instances is ordered by the task DAG. It
// exits non-zero when a schedule is not dependence-preserving.
//
//	dmacp verify -stmts "A(i) = B(i)+C(i); B(i) = A(i)" -iters 128
//
// With -app the verify subcommand checks the schedules of one of the 12
// shipped applications (or "all") at an arbitrary scale instead of a kernel:
//
//	dmacp verify -app FFT -iters 64 -len 8192
//
// The faults subcommand injects dead links, routers and tiles into the mesh,
// repairs the optimized schedule through the verifier-gated degradation path,
// and reports the movement and latency cost. It exits non-zero with a
// diagnostic when the fault set is unrepairable (for example when all four
// memory-controller corners are killed):
//
//	dmacp faults -links 3 -tiles 1 -fseed 7
//	dmacp faults -kill-tiles "0,5,30,35"   # kills every MC: unrepairable
//
// With -online the fault set strikes mid-run instead: the simulator
// checkpoints completed instances and live memory state at the arrival cycle
// (-at, a fraction of the pristine makespan), migration traffic is charged
// for state stranded on dead nodes, and only the residual schedule is
// re-repaired — compared against re-partitioning from scratch:
//
//	dmacp faults -links 3 -tiles 1 -online -at 0.5
//
// All commands accept -j N to bound the worker pool (<= 0 means one worker
// per CPU, 1 forces serial execution); results are identical at every setting.
// Every command exits 2 on invalid input: bad flags, a kernel that does not
// parse or exceeds the size limits, an unknown cluster or memory mode.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"dmacp/pipeline"
)

// runVerify is the `dmacp verify` subcommand: the static
// dependence-preservation verifier over both emitted schedules.
func runVerify(args []string) {
	fs := flag.NewFlagSet("dmacp verify", flag.ExitOnError)
	var (
		stmts   = fs.String("stmts", "A(8*i) = B(8*i)+C(16*i)+D(8*i+64)+E(24*i)\nX(8*i) = Y(8*i)+C(16*i)", "loop body statements (';' or newline separated)")
		app     = fs.String("app", "", "verify a shipped application instead of -stmts: one of the 12 workload names, or \"all\"")
		iters   = fs.Int("iters", 256, "iterations of the i loop")
		sweeps  = fs.Int("sweeps", 1, "outer timestep sweeps")
		alen    = fs.Int("len", 1<<16, "array length (elements)")
		window  = fs.Int("window", 0, "fixed statement window (0 = adaptive search 1..8)")
		cluster = fs.String("cluster", "quadrant", "cluster mode: all-to-all | quadrant | snc-4")
		cols    = fs.Int("cols", 6, "mesh columns")
		rows    = fs.Int("rows", 6, "mesh rows")
		seed    = fs.Int64("seed", 1, "deterministic data seed")
		quiet   = fs.Bool("q", false, "print violations only, no summaries")
		strict  = fs.Bool("strict", false, "treat warnings as failures (non-zero exit)")
		jobs    = fs.Int("j", 0, "parallel workers for the window sweep (<= 0 = one per CPU, 1 = serial; result is identical)")
		nofuse  = fs.Bool("nofuse", false, "disable the producer→consumer fusion pre-pass")
	)
	fs.Parse(args)

	cfgFor := func() pipeline.Config {
		cfg := pipeline.DefaultConfig()
		cfg.ClusterMode = *cluster
		cfg.FixedWindow = *window
		cfg.MeshCols, cfg.MeshRows = *cols, *rows
		cfg.Jobs = *jobs
		cfg.NoFuse = *nofuse
		return cfg
	}
	report := func(checks []pipeline.ScheduleCheck) (failed bool) {
		for _, c := range checks {
			if !*quiet {
				fmt.Printf("%-9s %s\n", c.Schedule+":", c.Summary)
				fmt.Printf("  kinds: %s\n", c.Kinds)
			}
			for _, d := range c.Diagnostics {
				if *quiet && !strings.HasPrefix(d, "violation") {
					continue
				}
				fmt.Printf("  %s\n", d)
			}
			if !c.Clean || (*strict && c.WarningCount > 0) {
				failed = true
			}
		}
		return failed
	}

	if *app != "" {
		apps := []string{*app}
		if *app == "all" {
			apps = pipeline.WorkloadNames()
		}
		failed := false
		for _, name := range apps {
			checks, err := pipeline.CheckAppSchedules(name, *iters, *alen, cfgFor())
			if err != nil {
				exitErr("dmacp verify", "", err)
			}
			if !*quiet {
				fmt.Printf("-- %s --\n", name)
			}
			if report(checks) {
				failed = true
			}
		}
		if failed {
			fmt.Fprintln(os.Stderr, "dmacp verify: FAILED: a schedule failed verification")
			os.Exit(1)
		}
		if !*quiet {
			fmt.Println("all schedules preserve every RAW/WAR/WAW dependence ✓")
		}
		return
	}

	k := pipeline.Kernel{
		Name:       "kernel",
		Statements: *stmts,
		Iterations: *iters,
		Sweeps:     *sweeps,
		ArrayLen:   *alen,
		Seed:       *seed,
	}
	checks, err := pipeline.CheckSchedules(k, cfgFor())
	if err != nil {
		exitErr("dmacp verify", "", err)
	}
	if report(checks) {
		fmt.Fprintln(os.Stderr, "dmacp verify: FAILED: a schedule failed verification")
		os.Exit(1)
	}
	if !*quiet {
		fmt.Println("all schedules preserve every RAW/WAR/WAW dependence ✓")
	}
}

// exitErr reports a failure of command cmd and exits with the documented
// code: 2 for invalid input (pipeline.ErrBadInput: bad kernels, specs,
// flags, out-of-range fractions), 1 for anything else, which kind names
// (the faults path's "UNREPAIRABLE: ").
func exitErr(cmd, kind string, err error) {
	if errors.Is(err, pipeline.ErrBadInput) {
		fmt.Fprintln(os.Stderr, cmd+": INVALID INPUT:", err)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, cmd+": "+kind+err.Error())
	os.Exit(1)
}

// runFaults is the `dmacp faults` subcommand: inject faults, repair the
// optimized schedule through the verifier-gated path, report the degradation.
func runFaults(args []string) {
	fs := flag.NewFlagSet("dmacp faults", flag.ExitOnError)
	var (
		stmts   = fs.String("stmts", "A(8*i) = B(8*i)+C(16*i)+D(8*i+64)+E(24*i)\nX(8*i) = Y(8*i)+C(16*i)", "loop body statements (';' or newline separated)")
		iters   = fs.Int("iters", 256, "iterations of the i loop")
		sweeps  = fs.Int("sweeps", 1, "outer timestep sweeps")
		alen    = fs.Int("len", 1<<16, "array length (elements)")
		window  = fs.Int("window", 0, "fixed statement window (0 = adaptive search 1..8)")
		cluster = fs.String("cluster", "quadrant", "cluster mode: all-to-all | quadrant | snc-4")
		cols    = fs.Int("cols", 6, "mesh columns")
		rows    = fs.Int("rows", 6, "mesh rows")
		seed    = fs.Int64("seed", 1, "deterministic data seed")

		links     = fs.Int("links", 0, "random dead links to inject")
		routers   = fs.Int("routers", 0, "random dead routers to inject")
		tiles     = fs.Int("tiles", 0, "random dead tiles to inject")
		fseed     = fs.Int64("fseed", 1, "fault injection seed")
		protect   = fs.Bool("protect-mc", true, "exclude memory-controller corners from the random draw")
		killLinks = fs.String("kill-links", "", "explicit dead links, e.g. \"0-1,7-13\"")
		killRtrs  = fs.String("kill-routers", "", "explicit dead routers, e.g. \"14,21\"")
		killTiles = fs.String("kill-tiles", "", "explicit dead tiles, e.g. \"0,5,30,35\"")
		jobs      = fs.Int("j", 0, "parallel workers for the window sweep (<= 0 = one per CPU, 1 = serial; result is identical)")
		online    = fs.Bool("online", false, "mid-run arrival: the fault strikes at -at x the pristine makespan; checkpoint and re-repair only the residual schedule")
		at        = fs.Float64("at", 0.5, "arrival point as a fraction of the pristine makespan (with -online)")
		timeout   = fs.Duration("timeout", 0, "deadline for the repair ladder (0 = run to completion); once it expires, repair keeps the greedy assignment and a rejected repair fails at stage deadline instead of re-placing every task")
		nofuse    = fs.Bool("nofuse", false, "disable the producer→consumer fusion pre-pass")
	)
	defaultUsage := fs.Usage
	fs.Usage = func() {
		defaultUsage()
		fmt.Fprint(fs.Output(), `
Exit codes:
  0  repaired and verified
  1  the fault set is unrepairable (or the -timeout deadline expired before a
     verifier-clean schedule was found)
  2  invalid input: a bad kernel or mode, malformed -kill-* specs, node ids
     outside the mesh, -at outside (0, 1), or bad flags
`)
	}
	fs.Parse(args)

	k := pipeline.Kernel{
		Name:       "kernel",
		Statements: *stmts,
		Iterations: *iters,
		Sweeps:     *sweeps,
		ArrayLen:   *alen,
		Seed:       *seed,
	}
	cfg := pipeline.DefaultConfig()
	cfg.ClusterMode = *cluster
	cfg.FixedWindow = *window
	cfg.MeshCols, cfg.MeshRows = *cols, *rows
	cfg.Jobs = *jobs
	cfg.Timeout = *timeout
	cfg.NoFuse = *nofuse
	spec := pipeline.FaultSpec{
		Links: *links, Routers: *routers, Tiles: *tiles,
		Seed: *fseed, ProtectMCs: *protect,
		KillLinks: *killLinks, KillRouters: *killRtrs, KillTiles: *killTiles,
	}

	if *online {
		rep, err := pipeline.RunFaultsOnline(k, cfg, spec, *at)
		if err != nil {
			exitErr("dmacp faults", "UNREPAIRABLE: ", err)
		}
		fmt.Println("== online fault arrival & checkpointed re-repair ==")
		fmt.Printf("platform:           %dx%d mesh, %s cluster mode\n", *cols, *rows, *cluster)
		fmt.Printf("faults:             %s (seed %d), arriving at cycle %.0f (%.0f%% of makespan)\n",
			rep.Faults, *fseed, rep.ArrivalCycle, *at*100)
		fmt.Printf("checkpoint:         %d tasks completed, %d residual (%d in-flight discarded)\n",
			rep.CompletedTasks, rep.ResidualTasks, rep.InFlightTasks)
		fmt.Printf("state migration:    %d L1 lines spilled, %d result pages rehomed, %d bytes x hops\n",
			rep.SpilledL1Lines, rep.RehomedPages, rep.MigrationTraffic)
		fmt.Printf("residual DAG:       %d arcs dropped across the cut, %d fetches retargeted\n",
			rep.DroppedArcs, rep.ConvertedFetches)
		mode := "incremental (assignment: " + rep.Strategy + ")"
		if rep.FullRepartition {
			mode = "full re-placement (incremental repair was refuted)"
		}
		fmt.Printf("repair:             %s; %d tasks migrated\n", mode, rep.Migrated)
		fmt.Printf("verify:             %s\n", rep.VerifySummary)
		fmt.Printf("movement:           pristine %d; online total %d (migration %d + residual %d); scratch re-partition %d\n",
			rep.BaseMovement, rep.OnlineTotal(), rep.MigrationTraffic, rep.ResidualMovement, rep.ScratchMovement)
		fmt.Printf("execution time:     pristine %.0f cycles; residual resumes to %.0f\n", rep.BaseCycles, rep.ResumeCycles)
		fmt.Println("residual schedule preserves every RAW/WAR/WAW dependence ✓")
		return
	}

	rep, err := pipeline.RunFaults(k, cfg, spec)
	if err != nil {
		exitErr("dmacp faults", "UNREPAIRABLE: ", err)
	}

	fmt.Println("== fault injection & schedule repair ==")
	fmt.Printf("platform:           %dx%d mesh, %s cluster mode\n", *cols, *rows, *cluster)
	fmt.Printf("faults:             %s\n", rep.Faults)
	if len(rep.DeadNodes) > 0 {
		fmt.Printf("dead nodes:         %v (tasks migrated away)\n", rep.DeadNodes)
	}
	mode := "incremental migration"
	if rep.FullRepartition {
		mode = "full re-placement (incremental repair was refuted)"
	}
	fmt.Printf("repair:             %s; %d tasks migrated, %d fetches rehomed\n", mode, rep.Migrated, rep.RehomedFetches)
	fmt.Printf("sync arcs:          %d re-emitted for migrated dependences, %d removed by reduction\n", rep.AddedArcs, rep.RemovedArcs)
	fmt.Printf("verify:             %s\n", rep.VerifySummary)
	fmt.Printf("data movement:      %d -> %d links (%+.1f%%)\n", rep.BaseMovement, rep.FaultMovement, rep.MovementDegradation()*100)
	fmt.Printf("execution time:     %.0f -> %.0f cycles (%.2fx slowdown)\n", rep.BaseCycles, rep.FaultCycles, rep.Slowdown())
	fmt.Printf("avg net latency:    %.1f -> %.1f cycles\n", rep.BaseAvgNetLatency, rep.FaultAvgNetLatency)
	fmt.Println("repaired schedule preserves every RAW/WAR/WAW dependence ✓")
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "verify" {
		runVerify(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "faults" {
		runFaults(os.Args[2:])
		return
	}
	var (
		stmts   = flag.String("stmts", "A(8*i) = B(8*i)+C(16*i)+D(8*i+64)+E(24*i)\nX(8*i) = Y(8*i)+C(16*i)", "loop body statements (';' or newline separated)")
		iters   = flag.Int("iters", 256, "iterations of the i loop")
		sweeps  = flag.Int("sweeps", 3, "outer timestep sweeps")
		alen    = flag.Int("len", 1<<16, "array length (elements)")
		window  = flag.Int("window", 0, "fixed statement window (0 = adaptive search 1..8)")
		cluster = flag.String("cluster", "quadrant", "cluster mode: all-to-all | quadrant | snc-4")
		memMode = flag.String("mem", "flat", "memory mode: flat | cache | hybrid")
		cols    = flag.Int("cols", 6, "mesh columns")
		rows    = flag.Int("rows", 6, "mesh rows")
		verify  = flag.Bool("verify", true, "race-check the optimized and default schedules (dmacp verify prints the diagnostics)")
		seed    = flag.Int64("seed", 1, "deterministic data seed")
		emit    = flag.Int("emit", 0, "emit the generated per-node program, truncated to N tasks per node (0 = off, -1 = unlimited)")
		asJSON  = flag.Bool("json", false, "print the report as JSON instead of text")
		deps    = flag.Bool("deps", false, "print the static dependence analysis of the loop body")
		jobs    = flag.Int("j", 0, "parallel workers for the window sweep (<= 0 = one per CPU, 1 = serial; result is identical)")
		nofuse  = flag.Bool("nofuse", false, "disable the producer→consumer fusion pre-pass")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "dmacp: unknown command %q (commands: verify, faults; run with flags only for the default report)\n", flag.Arg(0))
		os.Exit(2)
	}

	k := pipeline.Kernel{
		Name:       "kernel",
		Statements: *stmts,
		Iterations: *iters,
		Sweeps:     *sweeps,
		ArrayLen:   *alen,
		Seed:       *seed,
	}
	cfg := pipeline.DefaultConfig()
	cfg.ClusterMode = *cluster
	cfg.MemoryMode = *memMode
	cfg.FixedWindow = *window
	cfg.MeshCols, cfg.MeshRows = *cols, *rows
	cfg.Jobs = *jobs
	cfg.NoFuse = *nofuse

	rep, err := pipeline.Run(k, cfg)
	if err != nil {
		exitErr("dmacp", "", err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "dmacp:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("== NDP-aware computation partitioning ==")
	fmt.Printf("kernel:             %s\n", *stmts)
	fmt.Printf("platform:           %dx%d mesh, %s cluster mode, %s memory mode\n", *cols, *rows, *cluster, *memMode)
	fmt.Printf("statement window:   %d (adaptive search over 1..8)\n", rep.WindowSize)
	if len(rep.MovementBySize) > 1 {
		sizes := make([]int, 0, len(rep.MovementBySize))
		for w := range rep.MovementBySize {
			sizes = append(sizes, w)
		}
		sort.Ints(sizes)
		fmt.Println("window exploration (total data movement per size):")
		for _, w := range sizes {
			marker := " "
			if w == rep.WindowSize {
				marker = "*"
			}
			fmt.Printf("  %s w=%d  %d\n", marker, w, rep.MovementBySize[w])
		}
	}
	fmt.Printf("data movement:      %d -> %d links (%+.1f%%)\n",
		rep.DefaultMovement, rep.OptimizedMovement, -rep.MovementReduction()*100)
	fmt.Printf("execution time:     %.0f -> %.0f cycles (%.2fx speedup)\n",
		rep.DefaultCycles, rep.OptimizedCycles, rep.Speedup())
	fmt.Printf("energy:             %.0f -> %.0f nJ (%+.1f%%)\n",
		rep.DefaultEnergy, rep.OptimizedEnergy, -rep.EnergySavings()*100)
	fmt.Printf("L1 hit rate:        %.1f%% -> %.1f%%\n", rep.DefaultL1HitRate*100, rep.OptimizedL1HitRate*100)
	fmt.Printf("parallelism/stmt:   %.2f   syncs/stmt: %.2f   subcomputations/stmt: %.2f\n",
		rep.Parallelism, rep.Syncs, rep.Subcomputations)
	fmt.Printf("analyzable refs:    %.1f%%   predictor accuracy: %.1f%%\n",
		rep.AnalyzableFraction*100, rep.PredictorAccuracy*100)
	if rep.UsedInspector {
		fmt.Println("inspector-executor: engaged (may-dependences through indirect accesses)")
	}
	fmt.Printf("tasks emitted:      %d\n", rep.Tasks)

	if *deps {
		lines, err := pipeline.AnalyzeDeps(k, cfg)
		if err != nil {
			exitErr("dmacp", "deps: ", err)
		}
		fmt.Println()
		fmt.Println("static dependence analysis (GCD/Banerjee refined):")
		if len(lines) == 0 {
			fmt.Println("  (none)")
		}
		for _, l := range lines {
			fmt.Println(" ", l)
		}
	}

	if *emit != 0 {
		maxPer := *emit
		if maxPer < 0 {
			maxPer = 0
		}
		code, err := pipeline.EmitCode(k, cfg, maxPer)
		if err != nil {
			exitErr("dmacp", "emit: ", err)
		}
		fmt.Println()
		fmt.Println(code)
	}

	if *verify {
		ok, err := pipeline.Verify(k, cfg)
		if err != nil {
			exitErr("dmacp", "verify: ", err)
		}
		if !ok {
			fmt.Fprintln(os.Stderr, "dmacp: VERIFY FAILED: a schedule reorders a dependence (dmacp verify prints the races)")
			os.Exit(1)
		}
		fmt.Println("verify:             optimized and default schedules order every dependence ✓")
	}
}

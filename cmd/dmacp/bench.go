package main

// The bench subcommand is the benchmark-trajectory harness: it measures the
// hot-path micro costs (distance lookups, partitioning, simulation) with
// testing.Benchmark, times the experiment suite serial (-j 1) versus parallel
// (-j N), asserts the two runs produce byte-identical tables, times the
// dmacplint whole-tree pass (twice, asserting byte-identical -json output),
// and writes the whole record as JSON — to stdout by default, or to the file
// named by -o (`make bench-json PR=<n>` writes BENCH_<n>.json) — so
// successive records track the performance trajectory.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"dmacp/internal/analysis"
	"dmacp/internal/core"
	"dmacp/internal/exp"
	"dmacp/internal/fusion"
	"dmacp/internal/mesh"
	"dmacp/internal/sim"
	"dmacp/internal/workloads"
)

// benchMicro is one testing.Benchmark record.
type benchMicro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchGroup is one serial-vs-parallel wall-clock comparison.
type benchGroup struct {
	Name            string             `json:"name"`
	SerialSeconds   float64            `json:"serial_seconds"`
	ParallelSeconds float64            `json:"parallel_seconds"`
	Speedup         float64            `json:"speedup"`
	TablesIdentical bool               `json:"tables_identical"`
	Headline        map[string]float64 `json:"headline,omitempty"`
}

// benchReport is the BENCH_<n>.json schema.
type benchReport struct {
	Schema       string       `json:"schema"`
	NumCPU       int          `json:"num_cpu"`
	GoMaxProcs   int          `json:"gomaxprocs"`
	Jobs         int          `json:"jobs"`
	Iters        int          `json:"iters"`
	Elems        int          `json:"elems"`
	Micro        []benchMicro `json:"micro"`
	Groups       []benchGroup `json:"groups"`
	SuiteSpeedup float64      `json:"suite_speedup"`
}

func microBench(name string, fn func(b *testing.B)) benchMicro {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return benchMicro{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// suiteRun is one timed pass over a list of experiments at a jobs setting.
type suiteRun struct {
	seconds  float64
	tables   map[string]string
	headline map[string]map[string]float64
}

// benchSuiteIDs lists the experiment groups the harness times: the full
// table/figure suite, then the two heavy differential harnesses on their own.
var benchSuiteIDs = [][]string{
	{"table1", "table2", "table3", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "ablations"},
	{"verifydiff"},
	{"faultsweep"},
	{"onlinesweep"},
	{"churnsweep"},
	{"fusionsweep"},
}

func runSuite(ids []string, jobs int, sc workloads.Scale) (*suiteRun, error) {
	r := exp.NewRunner(sc)
	r.Jobs = jobs
	r.Opts.Jobs = jobs
	entries := map[string]func() (*exp.Experiment, error){
		"table1": r.Table1, "table2": r.Table2, "table3": r.Table3,
		"fig13": r.Fig13, "fig14": r.Fig14, "fig15": r.Fig15, "fig16": r.Fig16,
		"fig17": r.Fig17, "fig18": r.Fig18, "fig19": r.Fig19, "fig20": r.Fig20,
		"fig21": r.Fig21, "fig22": r.Fig22, "fig23": r.Fig23, "fig24": r.Fig24,
		"ablations": r.Ablations, "verifydiff": r.VerifyDiff, "faultsweep": r.FaultSweep,
		"onlinesweep": r.OnlineSweep, "churnsweep": r.ChurnSweep, "fusionsweep": r.FusionSweep,
	}
	out := &suiteRun{
		tables:   map[string]string{},
		headline: map[string]map[string]float64{},
	}
	start := time.Now()
	for _, id := range ids {
		fn, ok := entries[id]
		if !ok {
			return nil, fmt.Errorf("bench: unknown experiment %q", id)
		}
		e, err := fn()
		if err != nil {
			return nil, fmt.Errorf("bench: %s (jobs=%d): %w", id, jobs, err)
		}
		if e.Table != nil {
			out.tables[id] = e.Table.String()
		}
		out.headline[id] = e.Headline
	}
	out.seconds = time.Since(start).Seconds()
	return out, nil
}

// identicalRuns reports whether two runs produced byte-identical tables and
// headline metrics.
func identicalRuns(a, b *suiteRun) bool {
	if len(a.tables) != len(b.tables) || len(a.headline) != len(b.headline) {
		return false
	}
	for id, t := range a.tables {
		if b.tables[id] != t {
			return false
		}
	}
	for id, h := range a.headline {
		bh, ok := b.headline[id]
		if !ok || len(bh) != len(h) {
			return false
		}
		for k, v := range h {
			if bv, ok := bh[k]; !ok || bv != v {
				return false
			}
		}
	}
	return true
}

// runBench is the `dmacp bench` subcommand.
func runBench(args []string) {
	fs := flag.NewFlagSet("dmacp bench", flag.ExitOnError)
	var (
		out   = fs.String("o", "-", "output JSON path (\"-\" for stdout)")
		iters = fs.Int("iters", 48, "workload base iterations for the suite timing")
		elems = fs.Int("elems", 1<<13, "workload array length for the suite timing")
		jobs  = fs.Int("j", 0, "parallel worker count to compare against serial (<= 0 = one per CPU)")
		skip  = fs.Bool("micro-only", false, "skip the suite timing, record micro benchmarks only")
	)
	fs.Parse(args)
	if *jobs <= 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}

	rep := &benchReport{
		Schema:     "dmacp-bench/1",
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Jobs:       *jobs,
		Iters:      *iters,
		Elems:      *elems,
	}

	// Micro benchmarks: the hot paths the partitioner and simulator lean on.
	opts := core.DefaultOptions()
	m := opts.Mesh
	dt := m.DistanceTable()
	n := mesh.NodeID(m.Nodes())
	rep.Micro = append(rep.Micro, microBench("mesh/Distance", func(b *testing.B) {
		s := 0
		for i := 0; i < b.N; i++ {
			s += m.Distance(mesh.NodeID(i)%n, mesh.NodeID(i*7)%n)
		}
		_ = s
	}))
	rep.Micro = append(rep.Micro, microBench("mesh/DistanceTable.Between", func(b *testing.B) {
		s := 0
		for i := 0; i < b.N; i++ {
			s += dt.Between(mesh.NodeID(i)%n, mesh.NodeID(i*7)%n)
		}
		_ = s
	}))

	sc := workloads.Scale{Iters: *iters, Elems: *elems}
	app, err := workloads.Build(workloads.Names()[0], sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmacp bench:", err)
		os.Exit(1)
	}
	nest := app.Nests[0]
	fixedOpts := opts
	fixedOpts.FixedWindow = 4
	// core/Partition keeps fusion off so its trajectory stays comparable with
	// the pre-fusion BENCH_* records; core/Partition+fuse measures the full
	// default path (coarsen pre-pass included).
	unfusedOpts := fixedOpts
	unfusedOpts.Fuse = false
	rep.Micro = append(rep.Micro, microBench("core/Partition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Partition(app.Prog, nest, app.Store, unfusedOpts); err != nil {
				b.Fatal(err)
			}
		}
	}))
	rep.Micro = append(rep.Micro, microBench("core/Partition+fuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Partition(app.Prog, nest, app.Store, fixedOpts); err != nil {
				b.Fatal(err)
			}
		}
	}))
	rep.Micro = append(rep.Micro, microBench("fusion/Coarsen", func(b *testing.B) {
		lim := fusion.Limits{L1Bytes: fixedOpts.L1Bytes, LineBytes: fixedOpts.Layout.LineBytes}
		for i := 0; i < b.N; i++ {
			if r := fusion.Coarsen(app.Prog, nest, lim); r == nil {
				b.Fatal("nil coarsen result")
			}
		}
	}))
	part, err := core.Partition(app.Prog, nest, app.Store, fixedOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmacp bench:", err)
		os.Exit(1)
	}
	simCfg := sim.DefaultConfig(m)
	rep.Micro = append(rep.Micro, microBench("sim/Run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(part.Schedule, simCfg); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Online-repair timing: checkpoint a mid-run fault arrival once, then
	// measure the residual re-repair (checkpoint surgery + migration
	// accounting + batched reassignment + verifier gate) on its own.
	baseRun, err := sim.Run(part.Schedule, simCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmacp bench:", err)
		os.Exit(1)
	}
	faults := mesh.Inject(m, 1, 3, 0, 1, true)
	evCfg := simCfg
	evCfg.FaultEvents = []sim.FaultEvent{{Cycle: baseRun.Cycles / 2, Faults: faults}}
	evRun, err := sim.Run(part.Schedule, evCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmacp bench:", err)
		os.Exit(1)
	}
	ck := evRun.Checkpoints[0]
	rep.Micro = append(rep.Micro, microBench("sim/Run+checkpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(part.Schedule, evCfg); err != nil {
				b.Fatal(err)
			}
		}
	}))
	rep.Micro = append(rep.Micro, microBench("core/RepairOnline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.RepairOnline(part.Schedule, ck, m, faults, core.RepairOptions{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Re-integration timing: repair once under the fault set, revive every
	// dead element, then measure the hysteresis decision round (pricing +
	// accounting + verifier gate) on its own.
	residual, _, err := core.RepairOnline(part.Schedule, ck, m, faults, core.RepairOptions{}, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmacp bench:", err)
		os.Exit(1)
	}
	cleared := faults.Clone()
	cleared.Revive(faults.RecoveryAll())
	revived := mesh.RevivedNodes(m, faults, cleared)
	rep.Micro = append(rep.Micro, microBench("core/ReintegrateOnline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			churn := core.NewChurnState()
			churn.Observe(m, faults)
			churn.Observe(m, cleared)
			if _, _, err := core.ReintegrateOnline(context.Background(), residual, nil, m, cleared, revived, core.RepairOptions{}, churn, nil); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Suite timings: serial (-j 1) versus parallel, with a byte-identity
	// check between the two runs' tables and headline metrics.
	identical := true
	if !*skip {
		var serialTotal, parTotal float64
		for _, ids := range benchSuiteIDs {
			name := ids[0]
			if len(ids) > 1 {
				name = "experiments"
			}
			ser, err := runSuite(ids, 1, sc)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dmacp bench:", err)
				os.Exit(1)
			}
			parl, err := runSuite(ids, *jobs, sc)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dmacp bench:", err)
				os.Exit(1)
			}
			same := identicalRuns(ser, parl)
			identical = identical && same
			g := benchGroup{
				Name:            name,
				SerialSeconds:   ser.seconds,
				ParallelSeconds: parl.seconds,
				TablesIdentical: same,
				Headline:        map[string]float64{},
			}
			if parl.seconds > 0 {
				g.Speedup = ser.seconds / parl.seconds
			}
			for id, h := range parl.headline {
				for k, v := range h {
					g.Headline[id+"."+k] = v
				}
			}
			rep.Groups = append(rep.Groups, g)
			serialTotal += ser.seconds
			parTotal += parl.seconds
		}
		if parTotal > 0 {
			rep.SuiteSpeedup = serialTotal / parTotal
		}

		// Project-lint timing: dmacplint's whole-tree wall time (load +
		// all eight analyzers, interprocedural facts included), run twice.
		// The two passes stand in for serial/parallel, and TablesIdentical
		// asserts the -json bytes are identical across runs — the same
		// determinism contract the experiment tables get. Excluded from
		// SuiteSpeedup, which only aggregates true -j comparisons. The
		// group is skipped (with a warning) when the module source is not
		// reachable from the working directory, e.g. a relocated binary.
		lintPass := func() (float64, []byte, int, error) {
			start := time.Now()
			pkgs, err := analysis.Load(analysis.LoadConfig{}, "./...")
			if err != nil {
				return 0, nil, 0, err
			}
			diags := analysis.Run(pkgs, analysis.All())
			js, err := analysis.DiagnosticsJSON(diags)
			if err != nil {
				return 0, nil, 0, err
			}
			return time.Since(start).Seconds(), js, len(diags), nil
		}
		s1, j1, nFindings, err1 := lintPass()
		s2, j2, _, err2 := lintPass()
		if err1 != nil || err2 != nil {
			err := err1
			if err == nil {
				err = err2
			}
			fmt.Fprintln(os.Stderr, "dmacp bench: skipping dmacplint group:", err)
		} else {
			same := bytes.Equal(j1, j2)
			identical = identical && same
			g := benchGroup{
				Name:            "dmacplint",
				SerialSeconds:   s1,
				ParallelSeconds: s2,
				TablesIdentical: same,
				Headline:        map[string]float64{"dmacplint.findings": float64(nFindings)},
			}
			if s2 > 0 {
				g.Speedup = s1 / s2
			}
			rep.Groups = append(rep.Groups, g)
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmacp bench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dmacp bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (suite speedup %.2fx at -j %d on %d CPUs)\n",
			*out, rep.SuiteSpeedup, *jobs, rep.NumCPU)
	}
	if !identical {
		fmt.Fprintln(os.Stderr, "dmacp bench: FAILED: parallel tables differ from serial")
		os.Exit(1)
	}
}

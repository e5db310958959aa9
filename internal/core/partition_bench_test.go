package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/predictor"
	"dmacp/internal/sim"
	"dmacp/internal/workloads"
)

// BenchmarkPartition partitions Barnes' force nest at a fixed window of 4,
// so the partitioner's hot path can be profiled with the standard tooling.
func BenchmarkPartition(b *testing.B) {
	app, err := workloads.Build("Barnes", workloads.Scale{Iters: 64, Elems: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	nest := app.Nests[0]
	opts := core.DefaultOptions()
	opts.FixedWindow = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Partition(app.Prog, nest, app.Store, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionSweep partitions the same nest with the evaluation's
// adaptive window search (windows 1..8, L2 predictor on), serially, on a
// 6x6 and a 32x32 mesh. Where BenchmarkPartition runs one emitting pass, it
// pays for eight decision-only trial passes plus the emitting re-run of the
// selected window; both include the location pass and the sync reduction.
func BenchmarkPartitionSweep(b *testing.B) {
	app, err := workloads.Build("Barnes", workloads.Scale{Iters: 64, Elems: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	nest := app.Nests[0]
	for _, side := range []int{6, 32} {
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			m := mesh.MustNew(side, side)
			_ = m.DistanceTable()
			opts := core.DefaultOptions()
			opts.Mesh = m
			opts.Layout.L2Banks = m.Nodes()
			opts.Jobs = 1
			opts.Predictor = predictor.MustNew(predictor.Config{
				L2TotalBytes: opts.L2BankBytes * uint64(m.Nodes()),
				LineBytes:    opts.Layout.LineBytes,
				Ways:         opts.L2Ways,
				SampleMod:    8,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Partition(app.Prog, nest, app.Store, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRepairSchedule times one AssignAuto repair (both assignment
// strategies, the dependence replay and the sync reduction) of a residual
// schedule. Set-up partitions Barnes' force nest, lets 3 dead links and 1
// dead tile arrive at half the pristine makespan, and cuts the residual at
// that checkpoint; each iteration repairs a fresh copy.
func BenchmarkRepairSchedule(b *testing.B) {
	app, err := workloads.Build("Barnes", workloads.Scale{Iters: 48, Elems: 1 << 13})
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.FixedWindow = 4
	m := opts.Mesh
	part, err := core.Partition(app.Prog, app.Nests[0], app.Store, opts)
	if err != nil {
		b.Fatal(err)
	}
	simCfg := sim.DefaultConfig(m)
	base, err := sim.Run(part.Schedule, simCfg)
	if err != nil {
		b.Fatal(err)
	}
	faults := mesh.Inject(m, 1, 3, 0, 1, true)
	simCfg.FaultEvents = []sim.FaultEvent{{Cycle: base.Cycles / 2, Faults: faults}}
	run, err := sim.Run(part.Schedule, simCfg)
	if err != nil {
		b.Fatal(err)
	}
	residual := core.ResidualOf(part.Schedule, run.Checkpoints[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := residual.Clone()
		b.StartTimer()
		if _, err := core.RepairSchedule(c, m, faults, core.RepairOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceSyncs times the transitive sync reduction on both of its
// paths. "suite" is Barnes' force nest partitioned at window 4 (about 2,400
// tasks, the online-repair average) with implied arcs re-inserted; the
// walks answer every task. "longchain" is the long-chain kernel's unreduced
// schedule at 8,192 iterations (24,572 tasks); it exhausts the walk budget
// and falls back to the reachability index. Each iteration reduces a fresh
// copy.
func BenchmarkReduceSyncs(b *testing.B) {
	app, err := workloads.Build("Barnes", workloads.Scale{Iters: 64, Elems: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.FixedWindow = 4
	part, err := core.Partition(app.Prog, app.Nests[0], app.Store, opts)
	if err != nil {
		b.Fatal(err)
	}
	suite := cloneTasks(part.Schedule.Tasks)
	addImpliedArcs(suite, rand.New(rand.NewSource(1)), 4, 4)
	prog, nest, store := extKernel(b, longChainKernel, 8192)
	chain, err := core.EmitUnreduced(prog, nest, store, opts, opts.FixedWindow)
	if err != nil {
		b.Fatal(err)
	}
	core.DedupeWaits(chain.Tasks)
	// Copies are made in batches outside the timer, amortizing its cost;
	// the long chain's op is long enough to take them one at a time, which
	// keeps its live heap, and so the collector's work, small.
	for _, c := range []struct {
		name  string
		tasks []*core.Task
		batch int
	}{{"suite", suite, 32}, {"longchain", chain.Tasks, 1}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			copies := make([][]*core.Task, c.batch)
			for i := 0; i < b.N; i += c.batch {
				b.StopTimer()
				k := min(c.batch, b.N-i)
				for j := range copies[:k] {
					copies[j] = cloneTasks(c.tasks)
				}
				b.StartTimer()
				for _, tasks := range copies[:k] {
					core.ReduceSyncs(tasks)
				}
			}
		})
	}
}

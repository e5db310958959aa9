package core_test

import (
	"fmt"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/predictor"
	"dmacp/internal/workloads"
)

// BenchmarkPartition mirrors the `dmacp bench` core/Partition micro (Barnes
// force at bench scale, fixed window 4) so the hot path can be profiled with
// the standard tooling.
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
// 6x6 and a 32x32 mesh. Unlike BenchmarkPartition it pays for the location
// pass and the sync reduction of the selected window as well as the eight
// trial passes.
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

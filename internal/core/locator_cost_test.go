package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
)

// meshOpts returns the default options on a side x side mesh.
func meshOpts(side int) core.Options {
	m := mesh.MustNew(side, side)
	o := core.DefaultOptions()
	o.Mesh = m
	o.Layout.L2Banks = m.Nodes()
	return o
}

// TestNewLocatorCost: a locator's L2 residency model holds no per-set
// storage until a line arrives, so building one on the 1,024-node mesh
// (1,024 banks x 1,024 sets of 1 MB/16-way) allocates a small fixed amount
// per bank, where per-set storage built up front would cost about 24 MB.
func TestNewLocatorCost(t *testing.T) {
	o := meshOpts(32)
	const runs, limit = 20, 512 << 10
	var sink *core.Locator
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		loc, err := core.NewLocator(&o)
		if err != nil {
			t.Fatal(err)
		}
		sink = loc
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > limit {
		t.Errorf("NewLocator(32x32) allocates %d B, want <= %d", got, limit)
	}
	_ = sink
}

func BenchmarkNewLocator(b *testing.B) {
	for _, side := range []int{6, 32} {
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			o := meshOpts(side)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewLocator(&o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

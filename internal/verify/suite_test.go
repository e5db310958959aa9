package verify_test

import (
	"fmt"
	"sync"
	"testing"

	"dmacp/internal/baseline"
	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/verify"
	"dmacp/internal/workloads"
)

// suiteCase is one suite schedule under verification.
type suiteCase struct {
	name string
	in   verify.Input
}

// baselineStrategies are the default placements checked next to the
// partitioner's schedule.
var baselineStrategies = []baseline.Strategy{baseline.ProfiledLocality, baseline.BlockDistribution, baseline.MCAffine}

// suiteMemo keeps built suites for the tests that share them; the inputs
// are only read (mutations work on clones).
var suiteMemo sync.Map // "side/iters/elems/baselines" -> []suiteCase

// suiteInputs partitions every nest of the 12-workload suite at sc on a
// side×side mesh and returns the verifier input of each partitioner
// schedule, each followed (withBaselines) by one per baseline strategy.
func suiteInputs(tb testing.TB, side int, sc workloads.Scale, withBaselines bool) []suiteCase {
	tb.Helper()
	key := fmt.Sprintf("%d/%d/%d/%v", side, sc.Iters, sc.Elems, withBaselines)
	if cases, ok := suiteMemo.Load(key); ok {
		return cases.([]suiteCase)
	}
	m, err := mesh.New(side, side)
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Mesh = m
	opts.Layout.L2Banks = m.Nodes()
	apps, err := workloads.Suite(sc)
	if err != nil {
		tb.Fatal(err)
	}
	var cases []suiteCase
	for _, app := range apps {
		for _, nest := range app.Nests {
			res, err := core.Partition(app.Prog, nest, app.Store, opts)
			if err != nil {
				tb.Fatalf("%s: partition: %v", nest.Name, err)
			}
			cases = append(cases, suiteCase{nest.Name + "/partition", verify.PartitionInput(app.Prog, app.Store, res, opts)})
			if !withBaselines {
				continue
			}
			for _, strat := range baselineStrategies {
				b, err := baseline.Place(app.Prog, nest, app.Store, opts, strat)
				if err != nil {
					tb.Fatalf("%s: %v: %v", nest.Name, strat, err)
				}
				cases = append(cases, suiteCase{fmt.Sprintf("%s/%v", nest.Name, strat), verify.Input{
					Prog: app.Prog, Nest: nest, Store: app.Store,
					Schedule: b.Schedule, Mesh: m, Layout: opts.Layout,
					Translations: b.Translations,
				}})
			}
		}
	}
	suiteMemo.Store(key, cases)
	return cases
}

// TestHappensBeforeChainsPerNode pins the reachability index's size on the
// suite: with program-order edges ahead of the wait arcs, the chain
// decomposition never needs more chains than the schedule uses nodes, so the
// index costs O(tasks × nodes).
func TestHappensBeforeChainsPerNode(t *testing.T) {
	for _, c := range suiteInputs(t, 6, workloads.DefaultScale(), true) {
		tasks := c.in.Schedule.Tasks
		used := make(map[mesh.NodeID]bool)
		for _, tk := range tasks {
			used[tk.Node] = true
		}
		hb, _ := verify.BuildClosure(tasks, true)
		if hb == nil {
			t.Fatalf("%s: cycle", c.name)
		}
		if total, _ := hb.Chains(); total > len(used) {
			t.Errorf("%s: %d chains over %d tasks on %d nodes", c.name, total, len(tasks), len(used))
		}
	}
}

// BenchmarkCheck times one Check sweep over the partitioned suite nests: the
// benchmark's suite-compile shape (6×6, DefaultScale) and its mesh-32x32
// shape (32×32, 64 iterations).
func BenchmarkCheck(b *testing.B) {
	for _, bc := range []struct {
		name string
		side int
		sc   workloads.Scale
	}{
		{"suite6x6", 6, workloads.DefaultScale()},
		{"mesh32x32", 32, workloads.Scale{Iters: 64, Elems: 1 << 14}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cases := suiteInputs(b, bc.side, bc.sc, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range cases {
					rep, err := verify.Check(c.in, verify.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Clean() {
						b.Fatalf("%s: %s", c.name, rep.Summary())
					}
				}
			}
		})
	}
}

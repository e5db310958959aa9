package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/sim"
	"dmacp/internal/workloads"
)

// replayTally accumulates what TestReemitMatchesReference compared, so the
// test can require that every input class exercised the replay.
type replayTally struct{ schedules, added int }

// sameReplay replays s's dependences on two copies, one with the chain-label
// replay and one with the bitset reference, and requires identical per-task
// WaitFor and WaitHops and the same added-arc count.
func sameReplay(t *testing.T, name string, s *core.Schedule, dist *mesh.DistanceTable, tally *replayTally) {
	t.Helper()
	got, want := s.Clone(), s.Clone()
	nGot := core.ReemitDependenceArcs(got, dist)
	nWant := core.ReferenceReemit(want, dist)
	if nGot != nWant {
		t.Fatalf("%s: replay added %d arcs, reference %d", name, nGot, nWant)
	}
	for i, tk := range got.Tasks {
		w := want.Tasks[i]
		if !slices.Equal(tk.WaitFor, w.WaitFor) || !slices.Equal(tk.WaitHops, w.WaitHops) {
			t.Fatalf("%s: task %d waits %v hops %v, reference %v hops %v",
				name, i, tk.WaitFor, tk.WaitHops, w.WaitFor, w.WaitHops)
		}
	}
	tally.schedules++
	tally.added += nGot
}

// onlineEvents partitions every nest of the suite at TestScale under the
// gates' variant (quadrant mode, window 4) and calls visit with each
// mid-run fault event the online sweep repairs: 1-3 dead links, then 3
// links plus 1 and 2 dead tiles, each arriving at a quarter, half and three
// quarters of the pristine makespan.
func onlineEvents(t *testing.T, apps []string, visit func(name string, s *core.Schedule, ck *core.Checkpoint, m *mesh.Mesh, f *mesh.FaultSet)) {
	t.Helper()
	type level struct{ links, tiles int }
	levels := []level{{1, 0}, {2, 0}, {3, 0}, {3, 1}, {3, 2}}
	seed := int64(1)
	for _, app := range apps {
		a, err := workloads.Build(app, workloads.TestScale())
		if err != nil {
			t.Fatal(err)
		}
		for _, nest := range a.Nests {
			opts := core.DefaultOptions()
			opts.Mode = mesh.Quadrant
			opts.FixedWindow = 4
			m := opts.Mesh
			part, err := core.Partition(a.Prog, nest, a.Store, opts)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig(m)
			base, err := sim.Run(part.Schedule, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var faults []*mesh.FaultSet
			for _, lv := range levels {
				f := mesh.Inject(m, seed, lv.links, 0, lv.tiles, true)
				for _, frac := range []float64{0.25, 0.5, 0.75} {
					cfg.FaultEvents = append(cfg.FaultEvents, sim.FaultEvent{Cycle: frac * base.Cycles, Faults: f})
					faults = append(faults, f)
				}
			}
			run, err := sim.Run(part.Schedule, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for ei, f := range faults {
				visit(fmt.Sprintf("%s/%s event %d [%s]", app, nest.Name, ei, f), part.Schedule, run.Checkpoints[ei], m, f)
			}
			seed += 1000003
		}
	}
}

// TestReemitMatchesReference requires the chain-label dependence replay to
// add exactly the arcs the bitset replay it replaced adds, on the three
// kinds of input the repair ladder feeds it: the residual of every online
// fault event over the suite after migration under both assignment
// strategies, partitioned schedules with random tasks moved to random
// nodes, and the re-integration path's returned-work clones.
func TestReemitMatchesReference(t *testing.T) {
	apps := workloads.Names()
	if testing.Short() {
		apps = apps[:3]
	}
	var online, moved, returned replayTally
	rng := rand.New(rand.NewSource(20))
	onlineEvents(t, apps, func(name string, s *core.Schedule, ck *core.Checkpoint, m *mesh.Mesh, f *mesh.FaultSet) {
		residual := core.ResidualOf(s, ck)
		for _, st := range []core.AssignStrategy{core.AssignMinCost, core.AssignGreedy} {
			c := residual.Clone()
			dist, err := core.MigrateForReplay(c, m, f, core.RepairOptions{Strategy: st})
			if err != nil {
				t.Fatalf("%s %s: %v", name, st, err)
			}
			sameReplay(t, fmt.Sprintf("%s %s", name, st), c, dist, &online)
		}

		// The whole schedule with a tenth of its tasks moved anywhere on
		// the pristine mesh — arbitrary placements, not just repair's — and
		// a quarter of its arcs dropped, so RAW, WAW and WAR pairs all come
		// unordered.
		c := s.Clone()
		dist := m.AllDistancesAvoiding(mesh.NewFaultSet())
		for _, tk := range c.Tasks {
			if rng.Intn(10) == 0 {
				tk.Node = mesh.NodeID(rng.Intn(m.Nodes()))
			}
			waits, hops := tk.WaitFor[:0], tk.WaitHops[:0]
			for _, p := range tk.WaitFor {
				if rng.Intn(4) > 0 {
					waits = append(waits, p)
					hops = append(hops, dist.Between(c.Tasks[p].Node, tk.Node))
				}
			}
			tk.WaitFor, tk.WaitHops = waits, hops
		}
		sameReplay(t, name+" random moves", c, dist, &moved)

		// Re-integration after every dead element revives, at the default
		// hysteresis and at one low enough to return most candidates.
		repaired, _, err := core.RepairOnline(s, ck, m, f, core.RepairOptions{}, nil)
		if err != nil {
			return // unrepairable events have nothing to re-integrate
		}
		cleared := f.Clone()
		cleared.Revive(f.RecoveryAll())
		revived := mesh.RevivedNodes(m, f, cleared)
		for _, h := range []float64{1, 0.01} {
			churn := core.NewChurnState()
			churn.Observe(m, f)
			churn.Observe(m, cleared)
			back, dist := core.ReintegrateForReplay(repaired, nil, m, cleared, revived, h, churn)
			if back != nil {
				sameReplay(t, fmt.Sprintf("%s reintegrate h=%g", name, h), back, dist, &returned)
			}
		}
	})
	for _, c := range []struct {
		name  string
		tally replayTally
	}{{"online residuals", online}, {"random moves", moved}, {"re-integration", returned}} {
		t.Logf("%s: %d schedules, %d arcs added", c.name, c.tally.schedules, c.tally.added)
		if c.tally.schedules == 0 || c.tally.added == 0 {
			t.Errorf("%s: compared %d schedules adding %d arcs; the class went unexercised",
				c.name, c.tally.schedules, c.tally.added)
		}
	}
}

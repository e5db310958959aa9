package sim

import (
	"slices"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
)

// twoInstanceSchedule builds two statement instances in sequence: instance
// (iter 0) finishes quickly, instance (iter 1) is dominated by a long compute
// task, so a mid-run cycle cleanly separates the two.
func twoInstanceSchedule(m *mesh.Mesh) *core.Schedule {
	a0 := &core.Task{ID: 0, Node: m.NodeAt(0, 0), Ops: 2, Iter: 0,
		Fetches: []core.Fetch{{From: m.NodeAt(2, 0), Line: 0x40}}}
	a1 := &core.Task{ID: 1, Node: m.NodeAt(1, 1), Ops: 2, Iter: 0,
		IsRoot: true, ResultLine: 0x100,
		Fetches: []core.Fetch{{From: m.NodeAt(2, 0), Line: 0x80}}}
	a1.WaitFor = []int{0}
	a1.WaitHops = []int{m.Distance(a0.Node, a1.Node)}
	b0 := &core.Task{ID: 2, Node: m.NodeAt(3, 3), Ops: 4000, Iter: 1,
		Fetches: []core.Fetch{{From: m.NodeAt(2, 0), Line: 0x40}}}
	b1 := &core.Task{ID: 3, Node: m.NodeAt(2, 2), Ops: 2, Iter: 1,
		IsRoot: true, ResultLine: 0x140,
		Fetches: []core.Fetch{{From: m.NodeAt(1, 1), Line: 0x100}}}
	b1.WaitFor = []int{1, 2}
	b1.WaitHops = []int{m.Distance(a1.Node, b1.Node), m.Distance(b0.Node, b1.Node)}
	return numbered(&core.Schedule{Tasks: []*core.Task{a0, a1, b0, b1}, Instances: 2, SyncsBefore: 3, SyncsAfter: 3})
}

func TestCheckpointInstanceGranularity(t *testing.T) {
	m := mesh.MustNew(6, 6)
	sched := twoInstanceSchedule(m)
	cfg := DefaultConfig(m)
	base, err := Run(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := mesh.NewFaultSet()
	cfg.FaultEvents = []FaultEvent{
		{Cycle: 0, Faults: f},
		{Cycle: base.Cycles / 2, Faults: f},
		{Cycle: base.Cycles, Faults: f},
	}
	res, err := Run(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != len(cfg.FaultEvents) {
		t.Fatalf("%d checkpoints for %d events", len(res.Checkpoints), len(cfg.FaultEvents))
	}
	early, mid, late := res.Checkpoints[0], res.Checkpoints[1], res.Checkpoints[2]

	for i, d := range early.Done {
		if d {
			t.Errorf("cycle 0: task %d already done", i)
		}
	}
	for i, d := range late.Done {
		if !d {
			t.Errorf("cycle %v: task %d not done at the makespan", base.Cycles, i)
		}
	}

	// At the midpoint the short instance finished and the long one did not;
	// completion never splits an instance.
	want := []bool{true, true, false, false}
	for i, d := range mid.Done {
		if d != want[i] {
			t.Errorf("midpoint Done[%d] = %v, want %v", i, d, want[i])
		}
	}
	if len(mid.InFlight) == 0 {
		t.Error("midpoint: the long task should be in flight")
	}
	for _, i := range mid.InFlight {
		if mid.Done[i] {
			t.Errorf("task %d both done and in flight", i)
		}
	}

	// The completed root owns its result line and its node's busy horizon.
	root := sched.Tasks[1]
	if home := mid.Home[root.ResultID]; home != root.Node {
		t.Errorf("result line home = %v, want %v", home, root.Node)
	}
	if mid.NodeFree[root.Node] <= 0 {
		t.Errorf("completed root's node has zero busy horizon")
	}
	if !slices.IsSorted(mid.L1Resident[root.Node]) {
		t.Error("L1Resident line IDs not sorted")
	}
	if !slices.Contains(mid.L1Resident[root.Node], root.ResultID) {
		t.Error("write-invalidated result line not resident at the writer")
	}
}

// TestCheckpointHomesLastWriter stores one line from two nodes in turn, the
// second store ordered after the first: the checkpoint must home the line
// at the later writer, whose copy the store left the only one.
func TestCheckpointHomesLastWriter(t *testing.T) {
	m := mesh.MustNew(6, 6)
	const line = 0x200
	first := &core.Task{ID: 0, Node: m.NodeAt(0, 0), Ops: 2, Iter: 0, IsRoot: true, ResultLine: line}
	second := &core.Task{ID: 1, Node: m.NodeAt(4, 4), Ops: 2, Iter: 1, IsRoot: true, ResultLine: line,
		WaitFor: []int{0}, WaitHops: []int{m.Distance(first.Node, m.NodeAt(4, 4))}}
	sched := numbered(&core.Schedule{Tasks: []*core.Task{first, second}, Instances: 2, SyncsBefore: 1, SyncsAfter: 1})
	cfg := DefaultConfig(m)
	base, err := Run(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultEvents = []FaultEvent{{Cycle: base.Cycles, Faults: mesh.NewFaultSet()}}
	res, err := Run(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, id := res.Checkpoints[0], second.ResultID
	if ck.Home[id] != second.Node {
		t.Errorf("line homed at %v, want the last writer's node %v", ck.Home[id], second.Node)
	}
	for n, ids := range ck.L1Resident {
		if held := slices.Contains(ids, id); held != (mesh.NodeID(n) == second.Node) {
			t.Errorf("node %d holds the line: %v", n, held)
		}
	}
}

// TestCheckpointResidualResumes round-trips a midpoint checkpoint through
// RepairOnline and re-simulates the residual seeded with the checkpoint's
// busy horizons: the resumed run must schedule only the unfinished instance.
func TestCheckpointResidualResumes(t *testing.T) {
	m := mesh.MustNew(6, 6)
	sched := twoInstanceSchedule(m)
	cfg := DefaultConfig(m)
	base, err := Run(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := mesh.NewFaultSet()
	cfg.FaultEvents = []FaultEvent{{Cycle: base.Cycles / 2, Faults: f}}
	res, err := Run(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck := res.Checkpoints[0]

	residual, rep, err := core.RepairOnline(sched, ck, m, f, core.RepairOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResidualTasks != 2 || rep.CompletedTasks != 2 {
		t.Fatalf("split %d done / %d residual, want 2 / 2", rep.CompletedTasks, rep.ResidualTasks)
	}
	// The residual consumer's fetch of the completed root's result is
	// retargeted to the checkpointed home copy.
	if rep.DroppedArcs == 0 {
		t.Error("arc into the completed root was not dropped")
	}

	rcfg := DefaultConfig(m)
	rcfg.NodeFreeAt = ck.NodeFree
	rres, err := Run(residual, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Cycles <= 0 {
		t.Error("residual run finished in zero cycles")
	}
	if rres.Cycles >= base.Cycles+ck.Cycle {
		t.Errorf("resumed residual took %v cycles, no better than restarting (%v)", rres.Cycles, base.Cycles)
	}
}

package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dmacp/internal/mesh"
)

// emptyCheckpoint builds a checkpoint where nothing has completed: the whole
// schedule is residual and no live state exists to migrate.
func emptyCheckpoint(s *Schedule, m *mesh.Mesh) *Checkpoint {
	return &Checkpoint{
		Done:       make([]bool, len(s.Tasks)),
		NodeFree:   make([]float64, m.Nodes()),
		L1Resident: map[mesh.NodeID][]uint64{},
		Home:       map[uint64]mesh.NodeID{},
	}
}

// firstInstanceCheckpoint marks every task of the schedule's first statement
// instance (the one task 0 belongs to) as completed, with the write-invalidate
// residency that completion implies.
func firstInstanceCheckpoint(s *Schedule, m *mesh.Mesh) *Checkpoint {
	ck := emptyCheckpoint(s, m)
	iter, stmt := s.Tasks[0].Iter, s.Tasks[0].Stmt
	for i, t := range s.Tasks {
		if t.Iter != iter || t.Stmt != stmt {
			continue
		}
		ck.Done[i] = true
		if t.IsRoot {
			ck.Home[t.ResultLine] = t.Node
			ck.L1Resident[t.Node] = append(ck.L1Resident[t.Node], t.ResultLine)
		}
	}
	return ck
}

func TestRepairOnlineZeroFaultIsNoop(t *testing.T) {
	s, opts := partitioned(t)
	m := opts.Mesh
	before, err := MovementOn(s, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := emptyCheckpoint(s, m)
	res, rep, err := RepairOnline(s, ck, m, mesh.NewFaultSet(), RepairOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MigrationTraffic != 0 || rep.SpilledL1Lines != 0 || rep.RehomedPages != 0 {
		t.Errorf("zero-fault migration: %d bytes x hops (%d lines, %d pages), want 0",
			rep.MigrationTraffic, rep.SpilledL1Lines, rep.RehomedPages)
	}
	if rep.CompletedTasks != 0 || rep.ResidualTasks != len(s.Tasks) || rep.InFlightTasks != 0 {
		t.Errorf("zero-fault split %d done / %d residual / %d in flight, want 0/%d/0",
			rep.CompletedTasks, rep.ResidualTasks, rep.InFlightTasks, len(s.Tasks))
	}
	if rep.DroppedArcs != 0 || rep.ConvertedFetches != 0 {
		t.Errorf("zero-fault DAG surgery: %d arcs dropped, %d fetches converted, want none",
			rep.DroppedArcs, rep.ConvertedFetches)
	}
	if rep.Repair == nil || rep.Repair.Migrated != 0 {
		t.Errorf("zero-fault repair migrated tasks: %+v", rep.Repair)
	}
	after, err := MovementOn(res, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("zero-fault residual movement %d, want %d unchanged", after, before)
	}
}

func TestRepairOnlineAllMCsDeadIsPartitioned(t *testing.T) {
	s, opts := partitioned(t)
	f := mesh.NewFaultSet()
	for _, mc := range opts.Mesh.MemoryControllers() {
		f.KillTile(mc)
	}
	_, _, err := RepairOnline(s, emptyCheckpoint(s, opts.Mesh), opts.Mesh, f, RepairOptions{}, nil)
	if err == nil {
		t.Fatal("all MCs dead: online repair succeeded, want impossible")
	}
	if !errors.Is(err, mesh.ErrPartitioned) {
		t.Errorf("all MCs dead: error %v does not wrap mesh.ErrPartitioned", err)
	}
}

func TestRepairOnlineRejectsMismatchedCheckpoint(t *testing.T) {
	s, opts := partitioned(t)
	ck := emptyCheckpoint(s, opts.Mesh)
	ck.Done = ck.Done[:len(ck.Done)-1]
	if _, _, err := RepairOnline(s, ck, opts.Mesh, mesh.NewFaultSet(), RepairOptions{}, nil); err == nil {
		t.Fatal("stale checkpoint accepted")
	}
}

func TestRepairOnlineResidualExcludesCompleted(t *testing.T) {
	s, opts := partitioned(t)
	m := opts.Mesh
	ck := firstInstanceCheckpoint(s, m)
	done := 0
	for _, d := range ck.Done {
		if d {
			done++
		}
	}
	if done == 0 {
		t.Skip("first instance has no tasks")
	}
	f := mesh.Inject(m, 5, 2, 0, 0, true)
	res, rep, err := RepairOnline(s, ck, m, f, RepairOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompletedTasks != done || rep.ResidualTasks != len(s.Tasks)-done {
		t.Errorf("split %d done / %d residual, want %d / %d",
			rep.CompletedTasks, rep.ResidualTasks, done, len(s.Tasks)-done)
	}
	if len(res.Tasks) != rep.ResidualTasks {
		t.Errorf("residual holds %d tasks, report says %d", len(res.Tasks), rep.ResidualTasks)
	}
	// Residual IDs are dense from zero and arcs stay inside the residual.
	for i, tk := range res.Tasks {
		if tk.ID != i {
			t.Fatalf("residual task %d carries ID %d", i, tk.ID)
		}
		for _, p := range tk.WaitFor {
			if p < 0 || p >= len(res.Tasks) {
				t.Fatalf("residual task %d waits on out-of-range producer %d", i, p)
			}
		}
	}
	if err := ValidateScheduleOn(res, m, f); err != nil {
		t.Errorf("residual fails structural validation: %v", err)
	}
}

// TestRepairRejectsMalformedArcs corrupts one task's arcs or nodes and
// requires every repair entry point to refuse the schedule with an error
// naming the task, instead of panicking on an out-of-range index or — for a
// forward arc, which the residual cut would silently re-point — succeeding.
func TestRepairRejectsMalformedArcs(t *testing.T) {
	probes := []struct {
		name    string
		corrupt func(tk *Task)
	}{
		{"negative producer", func(tk *Task) { tk.addWait(-1, 0) }},
		{"producer past the end", func(tk *Task) { tk.addWait(1<<20, 0) }},
		{"forward arc", func(tk *Task) { tk.addWait(3, 0) }},
		{"hops without a producer", func(tk *Task) { tk.WaitHops = append(tk.WaitHops, 0) }},
		{"task off the mesh", func(tk *Task) { tk.Node = 1 << 20 }},
		{"fetch source off the mesh", func(tk *Task) { tk.Fetches = append(tk.Fetches, Fetch{From: -3}) }},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			s, opts := partitioned(t)
			m := opts.Mesh
			f := mesh.Inject(m, 3, 3, 0, 1, true)
			p.corrupt(s.Tasks[2])
			snapshot := s.Clone()
			entries := map[string]func() error{
				"RepairSchedule": func() error {
					_, err := RepairSchedule(s.Clone(), m, f, RepairOptions{})
					return err
				},
				"RepairVerified": func() error {
					_, _, err := RepairVerified(s, m, f, RepairOptions{}, nil)
					return err
				},
				"RepairOnline": func() error {
					_, _, err := RepairOnline(s, emptyCheckpoint(s, m), m, f, RepairOptions{}, nil)
					return err
				},
				"ReintegrateOnline": func() error {
					_, _, err := ReintegrateOnline(context.Background(), s, nil, m, mesh.NewFaultSet(),
						[]mesh.NodeID{0}, NewChurnState(), nil)
					return err
				},
			}
			for name, run := range entries {
				err := run()
				if err == nil {
					t.Fatalf("%s accepted the malformed schedule", name)
				}
				if !strings.Contains(err.Error(), "task 2 ") {
					t.Errorf("%s: error %q does not name task 2", name, err)
				}
			}
			if !reflect.DeepEqual(s, snapshot) {
				t.Error("a refused repair modified its input")
			}
		})
	}
}

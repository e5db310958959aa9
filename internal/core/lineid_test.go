package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/sim"
)

// lineIDSchedule partitions a two-statement kernel whose second statement
// reads the first one's output, so result lines are read again later.
func lineIDSchedule(t *testing.T) (*core.Schedule, *mesh.Mesh) {
	t.Helper()
	prog, nest, store := extKernel(t, "A(i) = B(i)+C(i)\nD(i) = A(i)+A(i+1)", 32)
	opts := core.DefaultOptions()
	opts.Fuse = false
	res, err := core.Partition(prog, nest, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule, opts.Mesh
}

// TestCheckShapeRejectsBadLineIDs corrupts one fetch's LineID or one root's
// ResultID to fall outside [0, Lines) and requires CheckShape, and through
// it the repair entry points and the simulator, to refuse the schedule with
// an error naming the task instead of indexing past their per-line tables.
func TestCheckShapeRejectsBadLineIDs(t *testing.T) {
	probes := []struct {
		name    string
		corrupt func(s *core.Schedule) int
	}{
		{"fetch ID at the bound", func(s *core.Schedule) int { return corruptFetch(s, int32(s.Lines)) }},
		{"negative fetch ID", func(s *core.Schedule) int { return corruptFetch(s, -1) }},
		{"result ID at the bound", func(s *core.Schedule) int { return corruptRoot(s, int32(s.Lines)) }},
		{"negative result ID", func(s *core.Schedule) int { return corruptRoot(s, -1) }},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			s, m := lineIDSchedule(t)
			if err := core.CheckShape(s, m); err != nil {
				t.Fatalf("emitted schedule refused: %v", err)
			}
			task := p.corrupt(s)
			named := fmt.Sprintf("task %d ", task)
			f := mesh.Inject(m, 3, 3, 0, 1, true)
			ck := &core.Checkpoint{
				Done:       make([]bool, len(s.Tasks)),
				NodeFree:   make([]float64, m.Nodes()),
				L1Resident: make([][]int32, m.Nodes()),
				Home:       make([]mesh.NodeID, s.Lines),
			}
			for id := range ck.Home {
				ck.Home[id] = mesh.InvalidNode
			}
			entries := map[string]func() error{
				"CheckShape":         func() error { return core.CheckShape(s, m) },
				"ValidateScheduleOn": func() error { return core.ValidateScheduleOn(s, m, nil) },
				"RepairSchedule": func() error {
					_, err := core.RepairSchedule(s.Clone(), m, f, core.RepairOptions{})
					return err
				},
				"RepairOnline": func() error {
					_, _, err := core.RepairOnline(s, ck, m, f, core.RepairOptions{}, nil)
					return err
				},
				"sim.Run": func() error {
					_, err := sim.Run(s, sim.DefaultConfig(m))
					return err
				},
			}
			for name, run := range entries {
				err := run()
				if err == nil {
					t.Fatalf("%s accepted a line ID outside [0, %d)", name, s.Lines)
				}
				if !strings.Contains(err.Error(), named) || !strings.Contains(err.Error(), "outside") {
					t.Errorf("%s: error %q does not name task %d's ID", name, err, task)
				}
			}
		})
	}
}

// corruptFetch sets the LineID of the first fetch of the last task that
// fetches anything, and returns that task's ID.
func corruptFetch(s *core.Schedule, id int32) int {
	for i := len(s.Tasks) - 1; i >= 0; i-- {
		if tk := s.Tasks[i]; len(tk.Fetches) > 0 {
			tk.Fetches[0].LineID = id
			return i
		}
	}
	panic("no task fetches a line")
}

// corruptRoot sets the ResultID of the last root and returns its ID.
func corruptRoot(s *core.Schedule, id int32) int {
	for i := len(s.Tasks) - 1; i >= 0; i-- {
		if tk := s.Tasks[i]; tk.IsRoot {
			tk.ResultID = id
			return i
		}
	}
	panic("no root")
}

// TestValidateCatchesStaleLineID gives an ID to a second line, once by
// copying another fetch's ID and once by editing a root's result line in
// place, and requires ValidateScheduleOn to reject each schedule. After
// NumberLines renumbers it, the schedule validates again.
func TestValidateCatchesStaleLineID(t *testing.T) {
	probes := []struct {
		name  string
		stale func(s *core.Schedule) bool
	}{
		{"ID copied from another line", func(s *core.Schedule) bool {
			first := s.Tasks[0].Fetches[0]
			for _, tk := range s.Tasks {
				for fi := range tk.Fetches {
					if fe := &tk.Fetches[fi]; fe.Line != first.Line {
						fe.LineID = first.LineID
						return true
					}
				}
			}
			return false
		}},
		{"result line edited in place", func(s *core.Schedule) bool {
			// A root whose line a later task reads keeps sharing its ID.
			for _, tk := range s.Tasks {
				if !tk.IsRoot {
					continue
				}
				for _, later := range s.Tasks[tk.ID+1:] {
					for _, fe := range later.Fetches {
						if fe.LineID == tk.ResultID {
							tk.ResultLine += 64
							return true
						}
					}
				}
			}
			return false
		}},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			s, m := lineIDSchedule(t)
			if !p.stale(s) {
				t.Fatal("no access to corrupt")
			}
			if err := core.CheckShape(s, m); err != nil {
				t.Fatalf("CheckShape bounds IDs only, but refused: %v", err)
			}
			err := core.ValidateScheduleOn(s, m, nil)
			if err == nil || !strings.Contains(err.Error(), "which names line") {
				t.Fatalf("stale line ID not caught: %v", err)
			}
			s.NumberLines()
			if err := core.ValidateScheduleOn(s, m, nil); err != nil {
				t.Fatalf("renumbered schedule rejected: %v", err)
			}
		})
	}
}

// TestCompletedInstancesDense compares the checkpoint's dense
// completed-instance predicate with a map built here, on random
// checkpoints, for every instance of the schedule and for queries with a
// negative or out-of-range iteration or statement.
func TestCompletedInstancesDense(t *testing.T) {
	s, _ := lineIDSchedule(t)
	iters, stmts := 0, 0
	for _, tk := range s.Tasks {
		iters, stmts = max(iters, tk.Iter+1), max(stmts, tk.Stmt+1)
	}
	if stmts < 2 {
		t.Fatalf("schedule has %d statements, want two", stmts)
	}
	type inst struct{ iter, stmt int }
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 16; trial++ {
		ck := &core.Checkpoint{Done: make([]bool, len(s.Tasks))}
		want := make(map[inst]bool)
		p := rng.Float64()
		for i, tk := range s.Tasks {
			if rng.Float64() < p {
				ck.Done[i] = true
				want[inst{tk.Iter, tk.Stmt}] = true
			}
		}
		done := ck.CompletedInstances(s)
		for iter := -2; iter < iters+2; iter++ {
			for stmt := -2; stmt < stmts+2; stmt++ {
				if got := done(iter, stmt); got != want[inst{iter, stmt}] {
					t.Fatalf("trial %d: instance (%d, %d) completed %v, want %v", trial, iter, stmt, got, !got)
				}
			}
		}
		for _, q := range []inst{{-1 << 40, 0}, {0, 1 << 40}, {1 << 40, -1}} {
			if done(q.iter, q.stmt) {
				t.Fatalf("trial %d: out-of-range instance %v completed", trial, q)
			}
		}
	}
	empty := (&core.Checkpoint{}).CompletedInstances(&core.Schedule{})
	if empty(0, 0) || empty(-1, -1) {
		t.Error("an empty schedule has a completed instance")
	}
}

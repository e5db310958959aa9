package core

import (
	"fmt"
	"slices"

	"dmacp/internal/mesh"
)

// ValidateScheduleOn checks the structural invariants every emitted schedule
// must satisfy on mesh m degraded by faults f (nil or empty for a pristine
// mesh); tests and debugging call it after Partition, baseline.Place or a
// repair. It returns the first violation found:
//
//   - the shape CheckShape enforces: dense ascending task IDs (the
//     simulator relies on topological order), every WaitFor arc pointing
//     at an earlier task, every task node and fetch source on the mesh,
//     and every line ID in [0, s.Lines);
//   - no line ID names two different lines (a stale ID left by editing a
//     line without renumbering; see NumberLines);
//   - every WaitHops entry equals the fault-aware live-route distance
//     between producer and consumer (the Manhattan distance on a pristine
//     mesh);
//   - every task sits on a usable node (live tile and router);
//   - every statement instance has exactly one root task, and instance
//     (Iter, Stmt) pairs appear in execution order.
func ValidateScheduleOn(s *Schedule, m *mesh.Mesh, f *mesh.FaultSet) error {
	if err := CheckShape(s, m); err != nil {
		return err
	}
	if err := checkLineIDs(s); err != nil {
		return err
	}
	dist := m.AllDistancesAvoiding(f)
	roots, lastRoot := 0, -1
	lastIter, lastStmt := -1, -1
	for i, t := range s.Tasks {
		if !f.NodeUsable(t.Node) {
			return fmt.Errorf("core: task %d placed on dead node %d", i, t.Node)
		}
		for j, p := range t.WaitFor {
			want := dist.Between(s.Tasks[p].Node, t.Node)
			if want < 0 {
				return fmt.Errorf("core: task %d arc from %d crosses a partitioned mesh (%d -> %d)",
					i, p, s.Tasks[p].Node, t.Node)
			}
			if t.WaitHops[j] != want {
				return fmt.Errorf("core: task %d arc from %d has hops %d, want %d",
					i, p, t.WaitHops[j], want)
			}
		}
		if t.Ops < 0 {
			return fmt.Errorf("core: task %d has negative ops", i)
		}
		// Instances appear in execution order (non-decreasing), compared
		// lexicographically on (Iter, Stmt) so arbitrary iteration counts
		// cannot collide or overflow.
		inOrder := t.Iter > lastIter || (t.Iter == lastIter && t.Stmt >= lastStmt)
		if t.IsRoot {
			// Up to an in-order task every instance's tasks are contiguous,
			// so the only earlier root it can repeat is the latest one; an
			// out-of-order root, about to be rejected, is looked up.
			same := func(r *Task) bool { return r.IsRoot && r.Iter == t.Iter && r.Stmt == t.Stmt }
			prev := -1
			if !inOrder {
				prev = slices.IndexFunc(s.Tasks[:i], same)
			} else if lastRoot >= 0 && same(s.Tasks[lastRoot]) {
				prev = lastRoot
			}
			if prev >= 0 {
				return fmt.Errorf("core: instance (iter %d, stmt %d) has two roots: %d and %d",
					t.Iter, t.Stmt, prev, i)
			}
			roots++
			lastRoot = i
		}
		if !inOrder {
			return fmt.Errorf("core: task %d out of instance order", i)
		}
		lastIter, lastStmt = t.Iter, t.Stmt
	}
	if s.Instances > 0 && roots != s.Instances {
		return fmt.Errorf("core: %d roots for %d instances", roots, s.Instances)
	}
	if s.SyncsAfter > s.SyncsBefore || s.SyncsAfter < 0 {
		return fmt.Errorf("core: sync counts inconsistent: before %d, after %d",
			s.SyncsBefore, s.SyncsAfter)
	}
	return nil
}

// CheckShape checks the shape the repair ladder and the simulator index by,
// before anything is replayed, cut or timed: task IDs dense and ascending,
// every WaitFor entry an earlier task with a WaitHops entry beside it,
// every task node and fetch source on the mesh, and every fetch's LineID
// and root's ResultID in [0, s.Lines). The error names the first offending
// task.
func CheckShape(s *Schedule, m *mesh.Mesh) error {
	if s == nil {
		return fmt.Errorf("core: nil schedule")
	}
	nodes := m.Nodes()
	onMesh := func(n mesh.NodeID) bool { return n >= 0 && int(n) < nodes }
	inLines := func(id int32) bool { return id >= 0 && int(id) < s.Lines }
	for i, t := range s.Tasks {
		switch {
		case t.ID != i:
			return fmt.Errorf("core: task %d has ID %d (want dense ascending)", i, t.ID)
		case !onMesh(t.Node):
			return fmt.Errorf("core: task %d on invalid node %d", i, t.Node)
		case len(t.WaitFor) != len(t.WaitHops):
			return fmt.Errorf("core: task %d WaitFor/WaitHops mismatch (%d vs %d)",
				i, len(t.WaitFor), len(t.WaitHops))
		}
		for _, p := range t.WaitFor {
			if p < 0 || p >= i {
				return fmt.Errorf("core: task %d waits on non-earlier task %d", i, p)
			}
		}
		for _, fe := range t.Fetches {
			if !onMesh(fe.From) {
				return fmt.Errorf("core: task %d fetches line %#x from invalid node %d", i, fe.Line, fe.From)
			}
			if !inLines(fe.LineID) {
				return fmt.Errorf("core: task %d fetches line %#x with ID %d outside [0, %d)", i, fe.Line, fe.LineID, s.Lines)
			}
		}
		if t.IsRoot && !inLines(t.ResultID) {
			return fmt.Errorf("core: task %d stores line %#x with ID %d outside [0, %d)", i, t.ResultLine, t.ResultID, s.Lines)
		}
	}
	return nil
}

// checkLineIDs reports the first line ID that names two different lines.
// It takes one scratch slot per ID; CheckShape has bounded the IDs.
func checkLineIDs(s *Schedule) error {
	type slot struct {
		line uint64
		seen bool
	}
	lineOf := make([]slot, s.Lines)
	see := func(i int, id int32, line uint64) error {
		sl := &lineOf[id]
		if sl.seen && sl.line != line {
			return fmt.Errorf("core: task %d gives line %#x ID %d, which names line %#x", i, line, id, sl.line)
		}
		*sl = slot{line, true}
		return nil
	}
	for i, t := range s.Tasks {
		for _, fe := range t.Fetches {
			if err := see(i, fe.LineID, fe.Line); err != nil {
				return err
			}
		}
		if t.IsRoot {
			if err := see(i, t.ResultID, t.ResultLine); err != nil {
				return err
			}
		}
	}
	return nil
}

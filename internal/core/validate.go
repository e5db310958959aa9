package core

import (
	"fmt"

	"dmacp/internal/mesh"
)

// ValidateScheduleOn checks the structural invariants every emitted schedule
// must satisfy on mesh m degraded by faults f (nil or empty for a pristine
// mesh); tests and debugging call it after Partition, baseline.Place or a
// repair. It returns the first violation found:
//
//   - the shape CheckShape enforces: dense ascending task IDs (the
//     simulator relies on topological order), every WaitFor arc pointing
//     at an earlier task, and every task node and fetch source on the mesh;
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
	dist := m.AllDistancesAvoiding(f)
	type instKey struct{ iter, stmt int }
	roots := make(map[instKey]int)
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
		if t.IsRoot {
			k := instKey{t.Iter, t.Stmt}
			if prev, dup := roots[k]; dup {
				return fmt.Errorf("core: instance (iter %d, stmt %d) has two roots: %d and %d",
					t.Iter, t.Stmt, prev, i)
			}
			roots[k] = i
		}
		// Instances appear in execution order (non-decreasing), compared
		// lexicographically on (Iter, Stmt) so arbitrary iteration counts
		// cannot collide or overflow.
		if t.Iter < lastIter || (t.Iter == lastIter && t.Stmt < lastStmt) {
			return fmt.Errorf("core: task %d out of instance order", i)
		}
		lastIter, lastStmt = t.Iter, t.Stmt
	}
	if s.Instances > 0 && len(roots) != s.Instances {
		return fmt.Errorf("core: %d roots for %d instances", len(roots), s.Instances)
	}
	if s.SyncsAfter > s.SyncsBefore || s.SyncsAfter < 0 {
		return fmt.Errorf("core: sync counts inconsistent: before %d, after %d",
			s.SyncsBefore, s.SyncsAfter)
	}
	return nil
}

// CheckShape checks the shape the repair ladder and the simulator index by,
// before anything is replayed, cut or timed: task IDs dense and ascending,
// every WaitFor entry an earlier task with a WaitHops entry beside it, and
// every task node and fetch source on the mesh. The error names the first
// offending task.
func CheckShape(s *Schedule, m *mesh.Mesh) error {
	if s == nil {
		return fmt.Errorf("core: nil schedule")
	}
	nodes := m.Nodes()
	onMesh := func(n mesh.NodeID) bool { return n >= 0 && int(n) < nodes }
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
		}
	}
	return nil
}

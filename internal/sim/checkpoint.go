package sim

import (
	"slices"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
)

// FaultEvent is one seeded mid-run fault arrival: Faults strikes the until
// then pristine mesh when the simulated clock reaches Cycle.
type FaultEvent struct {
	Cycle  float64
	Faults *mesh.FaultSet
}

// buildCheckpoint snapshots the execution state at the arrival cycle.
//
// Completion is instance-granular: a statement instance counts as done only
// when its root task — the store of the instance's result — finished by the
// arrival cycle. Every task of an instance is a WaitFor-ancestor of its
// root, so a finished root implies the whole instance finished; conversely a
// partially executed instance holds only unnamed partial results (no line
// identity), so its in-flight tasks are discarded and the instance re-runs
// in the residual schedule.
//
// Residency is replayed over the completed tasks by core.Residency, the
// verifier's write-invalidate rule: any real access leaves a live copy of
// the line in the consuming node's L1, and a root store invalidates every
// remote copy, leaving the writer's node as the line's sole home.
func buildCheckpoint(sched *core.Schedule, nodes int, startAt, occEndAt, finish []float64, cycle float64) *core.Checkpoint {
	ck := &core.Checkpoint{
		Cycle:    cycle,
		Done:     make([]bool, len(sched.Tasks)),
		NodeFree: make([]float64, nodes),
	}
	type instKey struct{ iter, stmt int }
	doneInst := make(map[instKey]bool)
	for _, t := range sched.Tasks {
		if t.IsRoot && finish[t.ID] <= cycle {
			doneInst[instKey{t.Iter, t.Stmt}] = true
		}
	}
	for i, t := range sched.Tasks {
		if doneInst[instKey{t.Iter, t.Stmt}] {
			ck.Done[i] = true
			if e := occEndAt[i]; e > ck.NodeFree[t.Node] {
				ck.NodeFree[t.Node] = e
			}
		} else if startAt[i] < cycle {
			ck.InFlight = append(ck.InFlight, i)
		}
	}

	// Residency replay with write-invalidation, completed tasks in ID order;
	// then every holder of a line keeps a copy.
	var res core.Residency
	ck.Home = make(map[uint64]mesh.NodeID)
	for i, t := range sched.Tasks {
		if !ck.Done[i] {
			continue
		}
		for _, f := range t.Fetches {
			res.Read(res.Intern(f.Line), t.Node, i)
		}
		if t.IsRoot {
			res.Write(res.Intern(t.ResultLine), t.Node, i)
			ck.Home[t.ResultLine] = t.Node
		}
	}
	ck.L1Resident = make(map[mesh.NodeID][]uint64, nodes)
	for id, line := range res.Lines() {
		for _, n := range res.Holders(int32(id), mesh.InvalidNode) {
			ck.L1Resident[n] = append(ck.L1Resident[n], line)
		}
	}
	for n := mesh.NodeID(0); int(n) < nodes; n++ {
		slices.Sort(ck.L1Resident[n])
	}
	return ck
}

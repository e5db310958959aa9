package sim

import (
	"dmacp/internal/core"
	"dmacp/internal/mesh"
)

// FaultEvent is one seeded mid-run fault arrival: Faults strikes the until
// then pristine mesh when the simulated clock reaches Cycle. Run reads only
// Cycle, to cut its checkpoint there; Faults records the fault set for the
// caller and is never read, so a wrong one goes unnoticed. Every caller sets
// it, the benchmark module's included, so dropping or checking the field
// changes that module too.
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
	doneInst := core.InstancesOf(sched.Tasks, func(i int) bool {
		return sched.Tasks[i].IsRoot && finish[i] <= cycle
	})
	for i, t := range sched.Tasks {
		if doneInst.Has(t.Iter, t.Stmt) {
			ck.Done[i] = true
			if e := occEndAt[i]; e > ck.NodeFree[t.Node] {
				ck.NodeFree[t.Node] = e
			}
		} else if startAt[i] < cycle {
			ck.InFlight = append(ck.InFlight, i)
		}
	}

	// Residency replay with write-invalidation, completed tasks in ID order,
	// by the schedule's line IDs. Then every holder of a line keeps a copy;
	// IDs are visited ascending, so each node's list comes out sorted.
	var res core.Residency
	res.Reserve(sched.Lines)
	ck.Home = make([]mesh.NodeID, sched.Lines)
	for id := range ck.Home {
		ck.Home[id] = mesh.InvalidNode
	}
	for i, t := range sched.Tasks {
		if !ck.Done[i] {
			continue
		}
		for _, f := range t.Fetches {
			res.Read(f.LineID, t.Node, i)
		}
		if t.IsRoot {
			res.Write(t.ResultID, t.Node, i)
			ck.Home[t.ResultID] = t.Node
		}
	}
	ck.L1Resident = make([][]int32, nodes)
	for id := int32(0); int(id) < sched.Lines; id++ {
		for _, n := range res.Holders(id, mesh.InvalidNode) {
			ck.L1Resident[n] = append(ck.L1Resident[n], id)
		}
	}
	return ck
}

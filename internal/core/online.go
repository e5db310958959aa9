package core

import (
	"context"
	"fmt"
	"slices"

	"dmacp/internal/mesh"
)

// Checkpoint is an execution snapshot at a mid-run fault-arrival cycle,
// produced by the simulator (internal/sim) and consumed by RepairOnline.
// Completion is instance-granular: Done[i] is true exactly when task i's
// whole statement instance (root store included) finished by the arrival
// cycle; a partially executed instance holds only unnamed partial results,
// so its in-flight tasks are discarded and the instance re-runs.
type Checkpoint struct {
	// Cycle is the arrival time the snapshot was cut at.
	Cycle float64
	// Done flags completed tasks, indexed by task ID.
	Done []bool
	// InFlight lists tasks (IDs, ascending) that had started but whose
	// instance had not completed at the cut: their work is stranded and
	// re-runs in the residual schedule.
	InFlight []int
	// NodeFree is each node's busy horizon over its completed tasks; it
	// seeds sim.Config.NodeFreeAt so the residual resumes where the
	// completed work left the machine.
	NodeFree []float64
	// L1Resident lists, per node, the lines with a live L1 copy at the cut
	// (each slice sorted ascending). Copies follow the write-invalidate
	// model the verifier replays.
	L1Resident map[mesh.NodeID][]uint64
	// Home maps each result line written before the cut to the node whose
	// store owns the sole post-invalidation copy.
	Home map[uint64]mesh.NodeID
}

// CompletedInstances returns the (iter, stmt) -> done predicate for the
// verifier's residual-schedule mode (verify.Input.Completed): an instance
// is completed when its tasks are flagged done in the checkpoint.
func (ck *Checkpoint) CompletedInstances(s *Schedule) func(iter, stmt int) bool {
	type instKey struct{ iter, stmt int }
	done := make(map[instKey]bool, s.Instances)
	for i, t := range s.Tasks {
		if i < len(ck.Done) && ck.Done[i] {
			done[instKey{t.Iter, t.Stmt}] = true
		}
	}
	return func(iter, stmt int) bool { return done[instKey{iter, stmt}] }
}

// OnlineReport describes one RepairOnline run.
type OnlineReport struct {
	// CompletedTasks/ResidualTasks split the schedule at the checkpoint;
	// InFlightTasks counts residual tasks whose started work was discarded.
	CompletedTasks, ResidualTasks, InFlightTasks int
	// MigrationTraffic is the bytes x hops (unit line size) charged to move
	// live state off dead or cut-off nodes over the recovery path:
	// SpilledL1Lines live L1 copies and RehomedPages result-line homes, each
	// paying the pristine-mesh distance to its nearest usable memory
	// controller. The recovery path is the maintenance network, so pristine
	// distances apply even where live routes no longer exist.
	MigrationTraffic int64
	SpilledL1Lines   int
	RehomedPages     int
	// DroppedArcs counts dependence arcs into completed producers removed
	// from the residual DAG (time orders them across the checkpoint);
	// ConvertedFetches counts residual fetches retargeted to a completed
	// writer's surviving home copy.
	DroppedArcs, ConvertedFetches int
	// Repair is the accepted residual repair's report.
	Repair *RepairReport
}

// RepairOnline re-repairs only the residual schedule after a mid-run fault
// arrival: the tasks of instances the checkpoint left unfinished. It
//
//  1. charges migration traffic for the live state stranded on nodes that
//     died or were cut off the placement region (spilled L1 lines and
//     rehomed result pages, bytes x pristine hops to the nearest usable MC);
//  2. rebuilds the residual DAG with IDs renumbered densely: arcs whose
//     producer completed are dropped (execution time orders them across the
//     checkpoint), and fetches whose last writer completed are retargeted to
//     the write-invalidated line's surviving home copy — keeping L1-hit
//     claims only where the checkpoint shows a live copy at the consumer;
//  3. escalates the residual through the repair -> verify -> re-place ladder
//     (RepairVerified) against the degraded mesh, so the verifier gates
//     every accepted repair. check should skip completed instances — pass
//     verify.Input.Completed = ck.CompletedInstances(s).
//
// The input schedule is never mutated; a malformed one (see RepairSchedule)
// is refused before it is cut. The returned schedule is the accepted
// residual (its task IDs are its own, dense from zero). It is
// RepairOnlineCtx without a deadline.
func RepairOnline(s *Schedule, ck *Checkpoint, m *mesh.Mesh, f *mesh.FaultSet, o RepairOptions, check RepairChecker) (*Schedule, *OnlineReport, error) {
	return RepairOnlineCtx(context.Background(), s, ck, m, f, o, check)
}

// RepairOnlineCtx is RepairOnline with a deadline: the residual surgery and
// migration accounting always complete (they are cheap and bounded), and
// the escalation ladder underneath is RepairVerifiedCtx, which stops short
// of the costlier rungs once ctx has expired.
func RepairOnlineCtx(ctx context.Context, s *Schedule, ck *Checkpoint, m *mesh.Mesh, f *mesh.FaultSet, o RepairOptions, check RepairChecker) (*Schedule, *OnlineReport, error) {
	if err := checkShape(s, m); err != nil {
		return nil, nil, err
	}
	if len(ck.Done) != len(s.Tasks) {
		return nil, nil, fmt.Errorf("core: checkpoint covers %d tasks, schedule has %d", len(ck.Done), len(s.Tasks))
	}
	rep := &OnlineReport{InFlightTasks: len(ck.InFlight)}

	// Migration accounting: everything outside the placement region loses
	// its node. The recovery path is the maintenance network, so distances
	// are pristine even where live routes are gone.
	dist := m.AllDistancesAvoiding(f)
	region, regionMC := placementRegion(m, f, dist)
	if regionMC == mesh.InvalidNode {
		return nil, nil, fmt.Errorf("core: online repair impossible: no usable memory controller survives (%s): %w", f, mesh.ErrPartitioned)
	}
	dt := m.DistanceTable()
	usableMCs := make([]mesh.NodeID, 0, 4)
	for _, mc := range m.MemoryControllers() {
		if region[mc] {
			usableMCs = append(usableMCs, mc)
		}
	}
	recoveryHops := func(from mesh.NodeID) int64 {
		best := -1
		for _, mc := range usableMCs {
			if d := dt.Between(from, mc); best < 0 || d < best {
				best = d
			}
		}
		return int64(best)
	}
	// Result-line homes per node, counted in one pass over ck.Home; a home
	// off the mesh is on no node to lose.
	homes := make([]int, m.Nodes())
	//lint:dmacp-allow maporder commutative int accumulation
	for _, home := range ck.Home {
		if home >= 0 && int(home) < len(homes) {
			homes[home]++
		}
	}
	for n := mesh.NodeID(0); int(n) < m.Nodes(); n++ {
		if region[n] {
			continue
		}
		rep.SpilledL1Lines += len(ck.L1Resident[n])
		rep.RehomedPages += homes[n]
		rep.MigrationTraffic += recoveryHops(n) * int64(len(ck.L1Resident[n])+homes[n])
	}

	rs, rstats := buildResidual(s, ck)
	rep.CompletedTasks = rstats.completed
	rep.ConvertedFetches = rstats.converted
	rep.DroppedArcs = rstats.dropped
	rep.ResidualTasks = len(rs.Tasks)

	repaired, rrep, err := RepairVerifiedCtx(ctx, rs, m, f, o, check)
	if err != nil {
		return nil, rep, err
	}
	rep.Repair = rrep
	return repaired, rep, nil
}

// residualStats tallies what buildResidual changed while cutting the
// schedule at a checkpoint.
type residualStats struct {
	completed int // tasks dropped because their instance finished
	converted int // fetches retargeted to a completed writer's home copy
	dropped   int // arcs into completed producers removed
}

// buildResidual cuts s at the checkpoint: tasks of unfinished instances
// survive with IDs renumbered densely in original (topological) order, arcs
// whose producer completed are dropped (execution time orders them across
// the cut), and fetches whose last writer completed are retargeted to the
// write-invalidated line's surviving home copy — keeping L1-hit claims only
// where the checkpoint shows a live copy at the consumer. The input schedule
// is never mutated. Both RepairOnline and ReintegrateOnline cut through
// here, so the two surgeries cannot drift apart.
func buildResidual(s *Schedule, ck *Checkpoint) (*Schedule, residualStats) {
	var st residualStats
	// The residual's tasks, fetches and arcs each take one slab, carved as
	// Clone carves them.
	nt, nf, nw := 0, 0, 0
	for i, t := range s.Tasks {
		if !ck.Done[i] {
			nt++
			nf += len(t.Fetches)
			nw += len(t.WaitFor)
		}
	}
	rs := &Schedule{Tasks: make([]*Task, 0, nt)}
	tasks := make([]Task, nt)
	fetches := make([]Fetch, 0, nf)
	ints := make([]int, 0, 2*nw)
	newID := make([]int, len(s.Tasks))
	// Each line's last root store, by original task ID.
	var res Residency
	for i, t := range s.Tasks {
		if ck.Done[i] {
			st.completed++
			if t.IsRoot {
				res.Write(res.Intern(t.ResultLine), t.Node, i)
			}
			newID[i] = -1
			continue
		}
		ct := &tasks[len(rs.Tasks)]
		*ct = *t
		ct.ID = len(rs.Tasks)
		ct.Fetches, fetches = carve(fetches, t.Fetches)
		for fi := range ct.Fetches {
			fe := &ct.Fetches[fi]
			w, wrote := res.Writer(res.Intern(fe.Line))
			if !wrote || !ck.Done[w.Task] {
				continue // input data, or a residual producer supplies it
			}
			// The last write completed before the cut: the only valid copy
			// lives at the checkpointed home (write-invalidate), unless this
			// node's own copy postdates it.
			home := ck.Home[fe.Line]
			converted := false
			if fe.From != home {
				fe.From = home
				fe.L2Miss = false // served cache-to-cache from the home copy
				converted = true
			}
			if fe.L1Hit && !lineResident(ck, t.Node, fe.Line) {
				fe.L1Hit = false // the forwarding handshake died with its arc
				converted = true
			}
			if converted {
				st.converted++
			}
		}
		// Arcs into completed producers are dropped: execution time orders
		// them across the cut.
		a := len(ints)
		for _, p := range t.WaitFor {
			if ck.Done[p] {
				st.dropped++
				continue
			}
			ints = append(ints, newID[p])
		}
		b := len(ints)
		for j, p := range t.WaitFor {
			if !ck.Done[p] {
				ints = append(ints, t.WaitHops[j])
			}
		}
		ct.WaitFor, ct.WaitHops = nil, nil
		if b > a {
			ct.WaitFor, ct.WaitHops = ints[a:b:b], ints[b:len(ints):len(ints)]
		}
		if t.IsRoot {
			res.Write(res.Intern(t.ResultLine), t.Node, i)
			rs.Instances++
		}
		newID[i] = ct.ID
		rs.Tasks = append(rs.Tasks, ct)
	}
	arcs := 0
	for _, t := range rs.Tasks {
		arcs += len(t.WaitFor)
	}
	rs.SyncsBefore, rs.SyncsAfter = arcs, arcs
	return rs, st
}

// lineResident reports whether the checkpoint holds a live L1 copy of line
// at node (L1Resident slices are sorted, so binary search applies).
func lineResident(ck *Checkpoint, node mesh.NodeID, line uint64) bool {
	_, ok := slices.BinarySearch(ck.L1Resident[node], line)
	return ok
}

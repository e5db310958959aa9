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
	// L1Resident lists, per node (one list per mesh node), the IDs of the
	// lines with a live L1 copy at the cut, each list strictly ascending.
	// Copies follow the write-invalidate model the verifier replays.
	L1Resident [][]int32
	// Home, indexed by line ID (Lines entries), is the node whose store
	// owns the sole post-invalidation copy of a line written before the
	// cut, or mesh.InvalidNode for a line with no completed store.
	Home []mesh.NodeID
}

// fits checks that the checkpoint was cut from a schedule of s's shape on
// m: one Done flag per task, one Home per line, one L1 list per node, every
// resident ID a line of s, each list ascending, and a home on the mesh for
// every completed store. s must have passed CheckShape.
func (ck *Checkpoint) fits(s *Schedule, m *mesh.Mesh) error {
	if len(ck.Done) != len(s.Tasks) || len(ck.Home) != s.Lines || len(ck.L1Resident) != m.Nodes() {
		return fmt.Errorf("core: checkpoint of %d tasks, %d lines and %d nodes does not fit %d tasks and %d lines on %d nodes",
			len(ck.Done), len(ck.Home), len(ck.L1Resident), len(s.Tasks), s.Lines, m.Nodes())
	}
	for n, ids := range ck.L1Resident {
		for k, id := range ids {
			if id < 0 || int(id) >= s.Lines || (k > 0 && id <= ids[k-1]) {
				return fmt.Errorf("core: checkpoint's L1 list of node %d holds line ID %d out of order or outside [0, %d)", n, id, s.Lines)
			}
		}
	}
	for i, t := range s.Tasks {
		if ck.Done[i] && t.IsRoot && !m.Valid(ck.Home[t.ResultID]) {
			return fmt.Errorf("core: checkpoint homes task %d's completed store on node %d, not on the mesh", i, ck.Home[t.ResultID])
		}
	}
	return nil
}

// CompletedInstances returns the (iter, stmt) -> done predicate for the
// verifier's residual-schedule mode (verify.Input.Completed): an instance
// is completed when its tasks are flagged done in the checkpoint. The
// predicate reads a dense InstanceSet, so an (iter, stmt) outside the
// range of the done tasks' instances is never completed.
func (ck *Checkpoint) CompletedInstances(s *Schedule) func(iter, stmt int) bool {
	return InstancesOf(s.Tasks, func(i int) bool { return i < len(ck.Done) && ck.Done[i] }).Has
}

// InstanceSet is a set of statement instances: a dense table over
// iter*stmts+stmt spanning the (Iter, Stmt) range of its members.
type InstanceSet struct {
	iters, stmts int
	in           []bool
}

// InstancesOf returns the set of the instances of the tasks i for which
// member(i) holds. A task with a negative Iter or Stmt is left out. Only
// the members are read, twice: once to size the table, once to fill it.
func InstancesOf(tasks []*Task, member func(i int) bool) InstanceSet {
	var x InstanceSet
	for i, t := range tasks {
		if member(i) {
			x.iters = max(x.iters, t.Iter+1)
			x.stmts = max(x.stmts, t.Stmt+1)
		}
	}
	x.in = make([]bool, x.iters*x.stmts)
	for i, t := range tasks {
		if member(i) {
			if k := x.index(t.Iter, t.Stmt); k >= 0 {
				x.in[k] = true
			}
		}
	}
	return x
}

// index returns instance (iter, stmt)'s slot, or -1 outside the range.
func (x InstanceSet) index(iter, stmt int) int {
	if iter < 0 || iter >= x.iters || stmt < 0 || stmt >= x.stmts {
		return -1
	}
	return iter*x.stmts + stmt
}

// Has reports whether instance (iter, stmt) is in the set.
func (x InstanceSet) Has(iter, stmt int) bool {
	k := x.index(iter, stmt)
	return k >= 0 && x.in[k]
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
// The input schedule is never mutated; a malformed one (see
// RepairSchedule), or a checkpoint that does not fit it, is refused before
// it is cut. The returned schedule is the accepted residual (its task IDs
// are its own, dense from zero). It is RepairOnlineCtx without a deadline.
func RepairOnline(s *Schedule, ck *Checkpoint, m *mesh.Mesh, f *mesh.FaultSet, o RepairOptions, check RepairChecker) (*Schedule, *OnlineReport, error) {
	return RepairOnlineCtx(context.Background(), s, ck, m, f, o, check)
}

// RepairOnlineCtx is RepairOnline with a deadline: the residual surgery and
// migration accounting always complete (they are cheap and bounded), and
// the escalation ladder underneath is RepairVerifiedCtx, which stops short
// of the costlier rungs once ctx has expired.
func RepairOnlineCtx(ctx context.Context, s *Schedule, ck *Checkpoint, m *mesh.Mesh, f *mesh.FaultSet, o RepairOptions, check RepairChecker) (*Schedule, *OnlineReport, error) {
	if err := CheckShape(s, m); err != nil {
		return nil, nil, err
	}
	if err := ck.fits(s, m); err != nil {
		return nil, nil, err
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
	dt, mcs := m.DistanceTable(), m.MemoryControllers()
	recoveryHops := func(from mesh.NodeID) int64 {
		best := -1
		for _, mc := range mcs {
			if d := dt.Between(from, mc); region[mc] && (best < 0 || d < best) {
				best = d
			}
		}
		return int64(best)
	}
	// A line with no home is on no node to lose.
	for _, home := range ck.Home {
		if m.Valid(home) && !region[home] {
			rep.RehomedPages++
			rep.MigrationTraffic += recoveryHops(home)
		}
	}
	for n, ids := range ck.L1Resident {
		if !region[n] {
			rep.SpilledL1Lines += len(ids)
			rep.MigrationTraffic += recoveryHops(mesh.NodeID(n)) * int64(len(ids))
		}
	}

	rs := buildResidual(s, ck, rep)
	rep.ResidualTasks = len(rs.Tasks)

	// The cut is this call's own, so the ladder's first attempt repairs it
	// in place; an escalation cuts it again.
	cut := rs
	fresh := func() *Schedule {
		if c := cut; c != nil {
			cut = nil
			return c
		}
		return buildResidual(s, ck, &OnlineReport{})
	}
	repaired, rrep, err := repairVerified(ctx, fresh, m, f, o, check)
	if err != nil {
		return nil, rep, err
	}
	rep.Repair = rrep
	return repaired, rep, nil
}

// buildResidual cuts s at the checkpoint: tasks of unfinished instances
// survive with IDs renumbered densely in original (topological) order and
// their line IDs kept (the residual shares s's Lines bound), arcs whose
// producer completed are dropped (execution time orders them across the
// cut), and fetches whose last writer completed are retargeted to the
// write-invalidated line's surviving home copy — keeping L1-hit claims only
// where the checkpoint shows a live copy at the consumer. It counts the
// completed tasks, converted fetches and dropped arcs into rep. The input
// schedule is never mutated.
func buildResidual(s *Schedule, ck *Checkpoint, rep *OnlineReport) *Schedule {
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
	rs := &Schedule{Tasks: make([]*Task, 0, nt), Lines: s.Lines}
	tasks := make([]Task, nt)
	fetches := make([]Fetch, 0, nf)
	ints := make([]int, 0, 2*nw)
	newID := make([]int, len(s.Tasks))
	// Each line's last root store, by original task ID.
	var res Residency
	res.Reserve(s.Lines)
	for i, t := range s.Tasks {
		if ck.Done[i] {
			rep.CompletedTasks++
			if t.IsRoot {
				res.Write(t.ResultID, t.Node, i)
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
			w, wrote := res.Writer(fe.LineID)
			if !wrote || !ck.Done[w.Task] {
				continue // input data, or a residual producer supplies it
			}
			// The last write completed before the cut: the only valid copy
			// lives at the checkpointed home (write-invalidate), unless this
			// node's own copy postdates it.
			home := ck.Home[fe.LineID]
			converted := false
			if fe.From != home {
				fe.From = home
				fe.L2Miss = false // served cache-to-cache from the home copy
				converted = true
			}
			// L1Resident lists are ascending, so binary search applies.
			if _, live := slices.BinarySearch(ck.L1Resident[t.Node], fe.LineID); fe.L1Hit && !live {
				fe.L1Hit = false // the forwarding handshake died with its arc
				converted = true
			}
			if converted {
				rep.ConvertedFetches++
			}
		}
		// Arcs into completed producers are dropped: execution time orders
		// them across the cut.
		a := len(ints)
		for _, p := range t.WaitFor {
			if ck.Done[p] {
				rep.DroppedArcs++
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
			res.Write(t.ResultID, t.Node, i)
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
	return rs
}

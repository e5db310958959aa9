package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"dmacp/internal/assign"
	"dmacp/internal/mesh"
)

// AssignStrategy selects how migrating tasks are matched to surviving nodes.
type AssignStrategy int

const (
	// AssignAuto (the default) shares one strand step — the stranded tasks,
	// their re-homed fetches and the placement costs — between the batched
	// min-cost assignment and the greedy ID-order placement, solves the two
	// on separate copies and commits whichever repaired schedule moves less
	// data, tie-breaking toward the batched result. The accepted repair is
	// therefore never worse than the PR 3 greedy baseline. When nothing is
	// stranded the two are the same schedule, and one repair runs.
	AssignAuto AssignStrategy = iota
	// AssignGreedy is the PR 3 baseline: tasks are placed one at a time in
	// ID order on the cheapest non-overloaded node. Kept for comparison
	// sweeps.
	AssignGreedy
	// AssignMinCost solves the whole stranded-task batch as one min-cost
	// flow (internal/assign) over tasks x candidate nodes, with per-node
	// capacities bounding load skew.
	AssignMinCost
)

// String names the strategy for reports.
func (a AssignStrategy) String() string {
	switch a {
	case AssignGreedy:
		return "greedy"
	case AssignMinCost:
		return "mincost"
	}
	return "auto"
}

// RepairOptions tunes RepairSchedule.
type RepairOptions struct {
	// Full re-places every task from scratch instead of migrating only the
	// tasks stranded on dead or unreachable nodes. It is the escalation step
	// of RepairVerified: a clean slate when incremental migration produced a
	// schedule the verifier rejected. Full re-placement always uses the
	// greedy load-balanced placement: with every task in the batch the
	// min-cost formulation degenerates and load balance dominates.
	Full bool
	// LoadThreshold is the load-balance slack used when choosing migration
	// targets (same rule as Options.LoadThreshold); 0 means the partitioner's
	// default of 0.10.
	LoadThreshold float64
	// Strategy selects the migration assignment (see AssignStrategy); the
	// zero value is AssignAuto.
	Strategy AssignStrategy
}

// RepairReport describes what one RepairSchedule call changed.
type RepairReport struct {
	// DeadNodes lists the nodes that lost their tasks: unusable under the
	// fault set, or cut off from the surviving memory controllers.
	DeadNodes []mesh.NodeID
	// Migrated counts tasks moved to a new node; RehomedFetches counts line
	// accesses redirected because their source node died or became
	// unreachable.
	Migrated       int
	RehomedFetches int
	// AddedArcs counts synchronization arcs the dependence replay inserted
	// to restore orderings that per-node program order no longer provides;
	// RemovedArcs counts arcs the post-repair reduction eliminated.
	AddedArcs, RemovedArcs int
	// Full records whether this was a full re-placement; Strategy names the
	// migration assignment that produced the accepted placement ("mincost",
	// "greedy", or "none" when no task moved).
	Full     bool
	Strategy string
	// MovementBefore is the schedule's bytes x hops movement on the pristine
	// mesh before repair; MovementAfter is the repaired schedule's movement
	// on the degraded mesh. Their ratio is the degradation the fault sweep
	// tracks.
	MovementBefore, MovementAfter int64
}

// MovementOn totals the schedule's data movement in line-sized units times
// live hops on the (possibly degraded) mesh: every non-L1-hit fetch travels
// from its source to the consuming task, and every synchronization arc
// carries its producer's partial result across its recorded hops. This is
// the paper's bytes x hops objective with a unit line size. It fails when a
// transfer would cross a partitioned mesh.
func MovementOn(s *Schedule, m *mesh.Mesh, f *mesh.FaultSet) (int64, error) {
	dist := m.AllDistancesAvoiding(f)
	var total int64
	for _, t := range s.Tasks {
		for _, fe := range t.Fetches {
			if fe.L1Hit || fe.From == t.Node {
				continue
			}
			d := dist.Between(fe.From, t.Node)
			if d < 0 {
				return 0, fmt.Errorf("%w: fetch of line %#x for task %d (%d -> %d)",
					mesh.ErrPartitioned, fe.Line, t.ID, fe.From, t.Node)
			}
			total += int64(d)
		}
		for _, h := range t.WaitHops {
			total += int64(h)
		}
	}
	return total, nil
}

// RepairSchedule rewrites a schedule in place so it runs on the degraded
// mesh described by f:
//
//  1. the usable placement region is the largest connected component of live
//     routers that contains a usable memory controller (a region without one
//     cannot be serviced);
//  2. tasks stranded outside the region migrate to the in-region node that
//     minimizes their fetch movement (bytes x hops), subject to the
//     partitioner's load-balance rule; migrated roots gain an ownership
//     fetch of their result line, and migrated tasks lose their L1 reuse
//     (a new node holds no warm copies);
//  3. fetches whose source died or became unreachable are re-homed to the
//     nearest usable memory controller (the data must come from DRAM);
//  4. every WaitHops is recomputed as the live-route distance, and the
//     dependence structure is replayed: migration changes per-node program
//     order, so orderings it silently provided are restored as explicit
//     arcs, then the arc set is deduplicated and transitively reduced.
//
// It fails, before touching s, when the schedule is malformed: task IDs not
// dense, a WaitFor entry that is not an earlier task, WaitFor and WaitHops
// of different lengths, or a task or fetch source off the mesh (the error
// names the task). It fails when no usable memory controller survives —
// such a mesh cannot serve any schedule (the error wraps
// mesh.ErrPartitioned) — leaving s partially modified; callers that need
// the original afterwards should pass a Clone (RepairVerified does).
//
// With the default AssignAuto strategy the stranded tasks, their re-homed
// fetches and the placement costs are worked out once, and the placement
// is then solved twice — once with the greedy ID-order baseline on a Clone,
// then as a batched min-cost assignment in place on s — and the schedule
// that moves less data is committed, tie-breaking toward the batched
// result. When no task is stranded both would be the same schedule, so the
// repair runs once, in place.
func RepairSchedule(s *Schedule, m *mesh.Mesh, f *mesh.FaultSet, o RepairOptions) (*RepairReport, error) {
	return repairCtx(context.Background(), s, m, f, o)
}

// repairCtx is RepairSchedule under a context that only AssignAuto's
// best-of consults. Every strategy takes the same steps: strand (repair
// steps 1-3 up to the placement), place, finish.
func repairCtx(ctx context.Context, s *Schedule, m *mesh.Mesh, f *mesh.FaultSet, o RepairOptions) (*RepairReport, error) {
	if err := checkShape(s, m); err != nil {
		return nil, err
	}
	rep := &RepairReport{Full: o.Full, Strategy: "none"}
	before, err := MovementOn(s, m, nil)
	if err != nil {
		return nil, err
	}
	rep.MovementBefore = before
	if f.Empty() {
		rep.MovementAfter = before
		return rep, nil
	}
	p, err := strand(s, m, f, o, rep)
	if err != nil {
		return nil, err
	}
	strategy := o.Strategy
	if o.Full {
		strategy = AssignGreedy
	}
	if strategy == AssignAuto && len(p.migIdx) > 0 {
		return repairBestOf(ctx, s, m, f, p, rep)
	}
	if err := p.placeAndFinish(s, m, f, strategy, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// repairBestOf places the stranded batch greedily on a clone of the
// stranded s, then by the batched min-cost assignment in place on s,
// finishes both, and copies the greedy result into s only when it produced
// strictly less post-repair movement (or the min-cost pass failed). Ties go
// to the batched assignment, so the accepted repair is by construction
// never worse than the greedy baseline. ctx is polled once, between the
// two: when it has expired the greedy result is committed without the
// costlier batched solve. One deep copy per call with a non-empty batch (s
// is already the caller's clone in RepairVerifiedCtx), taken after the
// strand step so the clone inherits the re-homed fetches.
func repairBestOf(ctx context.Context, s *Schedule, m *mesh.Mesh, f *mesh.FaultSet, p *strandPlan, rep *RepairReport) (*RepairReport, error) {
	cGr, repGr := s.Clone(), *rep
	errGr := p.placeAndFinish(cGr, m, f, AssignGreedy, &repGr)
	if ctx.Err() != nil {
		if errGr != nil {
			return nil, errGr
		}
		*s = *cGr
		return &repGr, nil
	}
	errMC := p.placeAndFinish(s, m, f, AssignMinCost, rep)
	switch {
	case errMC == nil && (errGr != nil || rep.MovementAfter <= repGr.MovementAfter):
		return rep, nil
	case errGr == nil:
		*s = *cGr
		return &repGr, nil
	default:
		return nil, errMC
	}
}

// strandPlan is what the strand step leaves for placement: the live-route
// distances on f, the in-region candidate nodes, which tasks migrate (in ID
// order in migIdx), and each migrating root's result-line source.
type strandPlan struct {
	dist       *mesh.DistanceTable
	candidates []mesh.NodeID
	migrate    []bool
	migIdx     []int
	resultSrcs []mesh.NodeID
	threshold  float64
}

// strand is repair steps 1-3 up to the placement: it finds the placement
// region, picks the tasks stranded outside it (every task, under o.Full)
// and re-homes the fetches whose source left the region, recording the
// dead nodes and re-homed fetches in rep. No task moves and the arc set is
// left as it was.
func strand(s *Schedule, m *mesh.Mesh, f *mesh.FaultSet, o RepairOptions, rep *RepairReport) (*strandPlan, error) {
	p := &strandPlan{threshold: o.LoadThreshold}
	if p.threshold <= 0 {
		p.threshold = 0.10
	}

	dist := m.AllDistancesAvoiding(f)
	p.dist = dist

	// The placement region: largest usable component around a usable MC.
	region, regionMC := placementRegion(m, f, dist)
	if regionMC == mesh.InvalidNode {
		return nil, fmt.Errorf("core: repair impossible: no usable memory controller survives (%s): %w", f, mesh.ErrPartitioned)
	}
	p.candidates = make([]mesh.NodeID, 0, len(region))
	for n := mesh.NodeID(0); int(n) < m.Nodes(); n++ {
		if region[n] {
			p.candidates = append(p.candidates, n)
		}
	}
	nearestMC := func(from mesh.NodeID) mesh.NodeID {
		best, bestD := mesh.InvalidNode, -1
		for _, mc := range m.MemoryControllers() {
			if !f.NodeUsable(mc) || !region[mc] {
				continue
			}
			if d := dist.Between(from, mc); best == mesh.InvalidNode || d < bestD || (d == bestD && mc < best) {
				best, bestD = mc, d
			}
		}
		return best
	}

	// Which tasks move, and which stranded nodes they leave.
	p.migrate = make([]bool, len(s.Tasks))
	stranded := make(map[mesh.NodeID]bool)
	for i, t := range s.Tasks {
		if !region[t.Node] {
			p.migrate[i] = true
			stranded[t.Node] = true
		} else if o.Full {
			p.migrate[i] = true
		}
	}
	dead := make([]mesh.NodeID, 0, len(stranded))
	for n := range stranded {
		dead = append(dead, n)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	rep.DeadNodes = dead

	// Re-home fetches that can no longer be served from their source; on a
	// migrating task every fetch is revisited after placement, but the
	// source must be fixed first so placement costs use reachable sources.
	for _, t := range s.Tasks {
		for fi := range t.Fetches {
			fe := &t.Fetches[fi]
			if region[fe.From] {
				continue
			}
			fe.From = nearestMC(fe.From)
			fe.L2Miss = true
			fe.L1Hit = false
			rep.RehomedFetches++
		}
	}

	// Collect the migrating batch in ID order. Each migrating root must
	// reacquire its result line from the line's home (or DRAM when the home
	// died); the store is no longer local.
	for i := range s.Tasks {
		if p.migrate[i] {
			p.migIdx = append(p.migIdx, i)
		}
	}
	p.resultSrcs = make([]mesh.NodeID, len(p.migIdx))
	for k, i := range p.migIdx {
		t := s.Tasks[i]
		p.resultSrcs[k] = mesh.InvalidNode
		if t.IsRoot {
			src := t.Node
			if !region[src] {
				src = nearestMC(src)
			}
			p.resultSrcs[k] = src
		}
	}
	return p, nil
}

// placeAndFinish places the batch p strands in s by strategy, then
// finishes the repair: the dependence replay, and the post-repair
// movement on f.
func (p *strandPlan) placeAndFinish(s *Schedule, m *mesh.Mesh, f *mesh.FaultSet, strategy AssignStrategy, rep *RepairReport) error {
	if err := p.place(s, m, strategy, rep); err != nil {
		return err
	}
	rep.AddedArcs, rep.RemovedArcs = replayArcs(s, p.dist)
	after, err := MovementOn(s, m, f)
	if err != nil {
		return fmt.Errorf("core: repaired schedule still crosses faults: %w", err)
	}
	rep.MovementAfter = after
	return nil
}

// place moves the batch p strands in s, which strand must have left as it
// found it, onto in-region nodes: greedy ID order (each task on its
// cheapest non-overloaded node) under AssignGreedy, one batched min-cost
// flow over tasks x candidates under AssignMinCost. It records the
// strategy and the migrations in rep; an empty batch records neither. The
// per-(task, node) cost is the task's migration bytes x hops: every fetch
// travels from its (already re-homed) source plus the root's result
// reacquisition.
func (p *strandPlan) place(s *Schedule, m *mesh.Mesh, strategy AssignStrategy, rep *RepairReport) error {
	if len(p.migIdx) == 0 {
		return nil
	}
	cost := func(k int, n mesh.NodeID) int64 {
		t := s.Tasks[p.migIdx[k]]
		var c int64
		for _, fe := range t.Fetches {
			c += int64(p.dist.Between(fe.From, n))
		}
		if src := p.resultSrcs[k]; src != mesh.InvalidNode {
			c += int64(p.dist.Between(src, n))
		}
		return c
	}
	rep.Strategy = strategy.String()
	var targets []mesh.NodeID
	if strategy == AssignMinCost {
		var err error
		targets, err = placeMinCost(p.candidates, len(p.migIdx), cost)
		if err != nil {
			return err
		}
	} else {
		// Seed the load tracker with the work that stays put.
		lt := newLoadTracker(m.Nodes(), p.threshold)
		for i, t := range s.Tasks {
			if !p.migrate[i] {
				lt.add(t.Node, t.Ops)
			}
		}
		targets = placeGreedy(lt, p.candidates, p.migIdx, s.Tasks, cost)
	}

	for k, i := range p.migIdx {
		t := s.Tasks[i]
		best := targets[k]
		if t.Node != best {
			rep.Migrated++
		}
		moveTask(t, best, p.resultSrcs[k], m)
	}
	return nil
}

// replayArcs finishes a migration once every placement is final: each
// arc's hop count becomes the live-route distance, any dependence ordering
// migration took away from per-node program order is restored as an
// explicit arc, and the arc set is deduplicated and transitively reduced.
// It updates the schedule's sync counts and returns the arcs added and
// removed.
func replayArcs(s *Schedule, dist *mesh.DistanceTable) (added, removed int) {
	refreshHops(s, dist)
	added = reemitDependenceArcs(s, dist)
	s.SyncsBefore += added
	removed = DedupeWaits(s.Tasks) + ReduceSyncs(s.Tasks)
	arcs := 0
	for _, t := range s.Tasks {
		arcs += len(t.WaitFor)
	}
	s.SyncsAfter = arcs
	return added, removed
}

// refreshHops sets every arc's hop count to the distance between its
// producer's and consumer's nodes, leaving an arc between disconnected nodes
// as it was.
func refreshHops(s *Schedule, dist *mesh.DistanceTable) {
	for _, t := range s.Tasks {
		for j, p := range t.WaitFor {
			if d := dist.Between(s.Tasks[p].Node, t.Node); d >= 0 {
				t.WaitHops[j] = d
			}
		}
	}
}

// placeGreedy is the PR 3 baseline placement: each migrating task, in ID
// order, lands on its cheapest non-overloaded candidate; when every
// candidate would overload, the cheapest of them takes the task anyway.
func placeGreedy(lt *loadTracker, candidates []mesh.NodeID, migIdx []int, tasks []*Task, cost func(int, mesh.NodeID) int64) []mesh.NodeID {
	targets := make([]mesh.NodeID, len(migIdx))
	for k, i := range migIdx {
		ops := tasks[i].Ops
		best, bestCost := mesh.InvalidNode, int64(-1)
		overloadedBest := mesh.InvalidNode
		var overloadedCost int64 = -1
		for _, n := range candidates {
			c := cost(k, n)
			if lt.wouldOverload(n, ops) {
				if overloadedBest == mesh.InvalidNode || c < overloadedCost {
					overloadedBest, overloadedCost = n, c
				}
				continue
			}
			if best == mesh.InvalidNode || c < bestCost {
				best, bestCost = n, c
			}
		}
		if best == mesh.InvalidNode {
			best = overloadedBest // every candidate overloaded: take the cheapest
		}
		targets[k] = best
		lt.add(best, ops)
	}
	return targets
}

// placeMinCost solves the whole migrating batch as one min-cost assignment
// over tasks x candidate nodes. Load balance enters as a per-candidate slot
// capacity of ceil(2S/C) (S stranded tasks over C candidates): twice the
// even share, enough slack for cost to dominate while still bounding skew
// the way the greedy overload rule does.
func placeMinCost(candidates []mesh.NodeID, n int, cost func(int, mesh.NodeID) int64) ([]mesh.NodeID, error) {
	per := (2*n + len(candidates) - 1) / len(candidates)
	if per < 1 {
		per = 1
	}
	caps := make([]int, len(candidates))
	for j := range caps {
		caps[j] = per
	}
	slots, _, err := assign.MinCost(n, caps, func(i, j int) int64 {
		return cost(i, candidates[j])
	})
	if err != nil {
		return nil, fmt.Errorf("core: batched migration assignment: %w", err)
	}
	targets := make([]mesh.NodeID, n)
	for i, j := range slots {
		targets[i] = candidates[j]
	}
	return targets, nil
}

// placementRegion returns the usable-node membership set of the largest
// live-router component containing a usable memory controller, plus that
// MC (InvalidNode when none survives). Ties break toward the lower MC id,
// keeping repair deterministic.
func placementRegion(m *mesh.Mesh, f *mesh.FaultSet, dist *mesh.DistanceTable) ([]bool, mesh.NodeID) {
	bestSize, bestMC := -1, mesh.InvalidNode
	var best []bool
	for _, mc := range m.MemoryControllers() {
		if !f.NodeUsable(mc) {
			continue
		}
		member := make([]bool, m.Nodes())
		size := 0
		for n := 0; n < m.Nodes(); n++ {
			if dist.Between(mc, mesh.NodeID(n)) >= 0 && f.NodeUsable(mesh.NodeID(n)) {
				member[n] = true
				size++
			}
		}
		if size > bestSize {
			bestSize, bestMC, best = size, mc, member
		}
	}
	return best, bestMC
}

func fetchesLine(t *Task, line uint64) bool {
	return slices.ContainsFunc(t.Fetches, func(fe Fetch) bool { return fe.Line == line })
}

// moveTask places t on node to. The new node holds no warm copies, so every
// reuse hit becomes a fetch, and a fetch from to's own bank is local again;
// a root that does not fetch its result line reacquires it from src.
func moveTask(t *Task, to, src mesh.NodeID, m *mesh.Mesh) {
	t.Node = to
	for fi := range t.Fetches {
		fe := &t.Fetches[fi]
		fe.L1Hit = false
		if fe.From == to {
			fe.L2Miss = false // local bank again
		}
	}
	if t.IsRoot && !fetchesLine(t, t.ResultLine) {
		t.Fetches = append(t.Fetches, Fetch{From: src, Line: t.ResultLine,
			L2Miss: m.IsMemoryController(src) && src != to})
	}
}

// reemitDependenceArcs replays the schedule's reads (fetches) and writes
// (root stores) in task order — the same access model the verifier checks —
// and inserts an explicit WaitFor arc for every dependence pair the current
// arc set plus per-node program order no longer orders; by construction the
// resulting schedule orders every RAW, WAW and WAR pair. Returns the number
// of arcs added.
//
// Task IDs are topological, so one forward pass decides every pair against
// happens-before labels built as it goes. Program order makes each node's
// tasks one chain, and a task's ancestors on a chain are always a prefix of
// it (every earlier task on the node precedes the latest ancestor there),
// so a task's whole ancestor set is one number per chain: the highest
// ancestor ID on it, the task itself included. p happens before i exactly
// when p <= up[i][chain(p)]. The labels take n x (nodes in use) x 4 bytes.
// It requires the shape checkShape enforces: dense IDs, every WaitFor entry
// an earlier task, and every node inside dist.
func reemitDependenceArcs(s *Schedule, dist *mesh.DistanceTable) int {
	tasks := s.Tasks
	rp := arcReplay{tasks: tasks, dist: dist, chainOf: make([]int32, dist.Nodes())}
	for c := range rp.chainOf {
		rp.chainOf[c] = -1
	}
	for _, t := range tasks {
		if rp.chainOf[t.Node] < 0 {
			rp.chainOf[t.Node] = int32(rp.k)
			rp.k++
		}
	}
	k := rp.k
	rp.up = make([]int32, len(tasks)*k)
	lastOnChain := make([]int32, k)
	for c := range lastOnChain {
		lastOnChain[c] = -1
	}

	// Per-line residency, by first-touch ID: the last root store and the
	// latest reader on each node since it, in ascending node order.
	res := Residency{LineIDs: LineIDs{ids: make(map[uint64]int32, len(tasks))}}

	for i, t := range tasks {
		c := rp.chainOf[t.Node]
		r := rp.up[i*k : i*k+k]
		if prev := lastOnChain[c]; prev >= 0 {
			copy(r, rp.up[int(prev)*k:int(prev)*k+k])
		} else {
			for x := range r {
				r[x] = -1
			}
		}
		r[c] = int32(i)
		lastOnChain[c] = int32(i)
		for _, p := range t.WaitFor {
			if !rp.ordered(r, p) {
				rp.absorb(r, p)
			}
		}

		for _, fe := range t.Fetches {
			id := res.Intern(fe.Line)
			if w, ok := res.Writer(id); ok {
				rp.need(t, r, int(w.Task)) // RAW
			}
			res.Read(id, t.Node, i)
		}
		if t.IsRoot {
			id := res.Intern(t.ResultLine)
			if w, ok := res.Writer(id); ok {
				rp.need(t, r, int(w.Task)) // WAW
			}
			for _, rd := range res.Readers(id) {
				rp.need(t, r, int(rd.Task)) // WAR
			}
			res.Write(id, t.Node, i)
		}
	}
	return rp.added
}

// arcReplay is reemitDependenceArcs' happens-before state: chainOf numbers
// the nodes in use, and up holds k labels per task.
type arcReplay struct {
	tasks   []*Task
	dist    *mesh.DistanceTable
	chainOf []int32
	k       int
	up      []int32
	added   int
}

// ordered reports whether task p is among the ancestors r labels (or is
// the labelled task itself).
func (rp *arcReplay) ordered(r []int32, p int) bool {
	return r[rp.chainOf[rp.tasks[p].Node]] >= int32(p)
}

// absorb adds p's ancestors, p included, to the labels r.
func (rp *arcReplay) absorb(r []int32, p int) {
	for c, v := range rp.up[p*rp.k : p*rp.k+rp.k] {
		if v > r[c] {
			r[c] = v
		}
	}
}

// need orders p before t, whose labels are r, adding the arc p -> t when
// nothing orders them yet.
func (rp *arcReplay) need(t *Task, r []int32, p int) {
	if rp.ordered(r, p) {
		return
	}
	t.addWait(p, rp.dist.Between(rp.tasks[p].Node, t.Node))
	rp.added++
	rp.absorb(r, p)
}

// RepairChecker validates a candidate repaired schedule; RepairVerified
// accepts a repair only when the checker does. The pipeline installs the
// race detector here (core cannot import verify), so every schedule that
// survives repair is proven dependence-sound, not just structurally valid.
type RepairChecker func(*Schedule) error

// RepairFailure records where the repair -> verify -> re-place escalation
// ladder gave up. Stage is the deepest stage reached: "repair" (incremental
// repair itself errored), "verify-reject" (the incremental repair was
// rejected by the verifier), "re-place" (the full re-placement errored),
// "re-place-verify-reject" (even the re-placement was rejected), or
// "deadline" (the context expired before any attempt produced a
// verifier-clean schedule). Unwrap exposes the underlying cause, so
// errors.Is(err, mesh.ErrPartitioned) still identifies hopeless meshes and
// errors.Is(err, context.DeadlineExceeded) identifies expired budgets.
type RepairFailure struct {
	Stage string
	Err   error
}

func (e *RepairFailure) Error() string {
	return fmt.Sprintf("core: repair failed at stage %s: %v", e.Stage, e.Err)
}

func (e *RepairFailure) Unwrap() error { return e.Err }

// RepairVerified is the gated degradation path: repair incrementally,
// verify; on rejection escalate to a full re-placement, verify; only then
// give up with a *RepairFailure naming the stage reached. The input
// schedule is never mutated — each attempt works on a Clone — and the
// returned schedule is the accepted clone. A nil checker degrades to
// structural validation only. It is RepairVerifiedCtx without a deadline.
func RepairVerified(s *Schedule, m *mesh.Mesh, f *mesh.FaultSet, o RepairOptions, check RepairChecker) (*Schedule, *RepairReport, error) {
	return RepairVerifiedCtx(context.Background(), s, m, f, o, check)
}

// RepairVerifiedCtx is RepairVerified under a deadline, on the same ladder.
// Stage 1's AssignAuto best-of commits the greedy repair without the
// batched solve once ctx has expired, and its one candidate is verified
// once. An expired ctx also stops the ladder before the full re-placement,
// which then fails with a *RepairFailure at stage "deadline" wrapping the
// context's error. The returned schedule is always verifier-clean.
func RepairVerifiedCtx(ctx context.Context, s *Schedule, m *mesh.Mesh, f *mesh.FaultSet, o RepairOptions, check RepairChecker) (*Schedule, *RepairReport, error) {
	if check == nil {
		check = func(c *Schedule) error { return ValidateScheduleOn(c, m, f) }
	}
	// attempt clones, repairs, and verifier-gates one configuration.
	attempt := func(opts RepairOptions, repairStage, rejectStage string) (*Schedule, *RepairReport, error) {
		c := s.Clone()
		rep, err := repairCtx(ctx, c, m, f, opts)
		if err != nil {
			return nil, nil, &RepairFailure{Stage: repairStage, Err: err}
		}
		if verr := ValidateScheduleOn(c, m, f); verr != nil {
			return nil, nil, &RepairFailure{Stage: rejectStage, Err: verr}
		}
		if cerr := check(c); cerr != nil {
			return nil, nil, &RepairFailure{Stage: rejectStage, Err: cerr}
		}
		return c, rep, nil
	}

	// Stage 1: incremental repair (unless the caller forced Full).
	if !o.Full {
		if c, rep, err := attempt(o, "repair", "verify-reject"); err == nil {
			return c, rep, nil
		}
	}

	// Stage 2: full re-placement.
	if err := ctx.Err(); err != nil {
		return nil, nil, &RepairFailure{Stage: "deadline", Err: err}
	}
	full := o
	full.Full = true
	return attempt(full, "re-place", "re-place-verify-reject")
}

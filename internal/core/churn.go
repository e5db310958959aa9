package core

import "dmacp/internal/mesh"

// churnFlapCap is the per-element failure count at which re-integration
// stops trusting a revived node: an element that has failed this many times
// keeps its work elsewhere no matter how much movement a return would save.
// Together with the hysteresis threshold this is what makes alternating
// fault/recovery events converge — after the cap trips, further churn of the
// same element costs zero migrations.
const churnFlapCap = 2

// churnHysteresis scales the migration cost a revived element must beat
// before ReintegrateOnline migrates work back onto it: a task returns only
// when bytes x hops saved > churnHysteresis x migration cost.
const churnHysteresis = 1.0

// ChurnState tracks per-node failure history across a run's fault and
// recovery events so re-integration can refuse to chase a flapping element.
// Observe is called once per event with the post-event fault set; a node
// transitioning usable -> unusable counts one failure. The state is owned by
// one run and is not safe for concurrent use.
type ChurnState struct {
	failures map[mesh.NodeID]int
	down     map[mesh.NodeID]bool
}

// NewChurnState returns an empty history: every node live, zero failures.
func NewChurnState() *ChurnState {
	return &ChurnState{
		failures: make(map[mesh.NodeID]int),
		down:     make(map[mesh.NodeID]bool),
	}
}

// Observe folds one event's post-state into the history: nodes that just
// became unusable gain a failure, nodes that are usable again are marked
// live. Iteration is by node id, so the update is deterministic.
func (c *ChurnState) Observe(m *mesh.Mesh, f *mesh.FaultSet) {
	for i := 0; i < m.Nodes(); i++ {
		n := mesh.NodeID(i)
		usable := f.NodeUsable(n)
		switch {
		case !usable && !c.down[n]:
			c.failures[n]++
			c.down[n] = true
		case usable && c.down[n]:
			c.down[n] = false
		}
	}
}

// Failures returns how many times node n has transitioned to unusable.
func (c *ChurnState) Failures(n mesh.NodeID) int {
	if c == nil {
		return 0
	}
	return c.failures[n]
}

// ReintegrateReport describes one ReintegrateOnline decision round.
type ReintegrateReport struct {
	// Candidates counts residual tasks for which some revived node would
	// reduce fetch movement at all; Migrated counts those actually moved
	// back (0 unless Accepted).
	Candidates, Migrated int
	// DeclinedChurn counts candidates refused because their best revived
	// target has flapped churnFlapCap or more times; DeclinedHysteresis
	// counts candidates whose saving did not clear the hysteresis multiple
	// of the migration cost.
	DeclinedChurn, DeclinedHysteresis int
	// MigrationTraffic is the bytes x hops charged to move the accepted
	// tasks' state back (0 unless Accepted).
	MigrationTraffic int64
	// MovementBefore/MovementAfter are the residual schedule's bytes x hops
	// on the post-recovery mesh without and with the re-integration applied.
	MovementBefore, MovementAfter int64
	// Accepted reports whether the migrated schedule was committed. When
	// false the returned schedule is the stay-put residual: re-integration
	// is an optimization, never an obligation, so a verifier rejection
	// falls back rather than fails.
	Accepted bool
}

// ReintegrateOnline decides, after a recovery event revived nodes, whether
// displaced work migrates back. s is the residual schedule still to run
// when the recovery arrived (for a mid-run recovery, the online repair's
// output, already cut at its checkpoint); f is the post-recovery fault set
// and revived the nodes the event brought back (mesh.RevivedNodes). Each
// task of s is priced per the paper's objective: moving to the cheapest
// revived node must save strictly more than churnHysteresis x the
// migration cost (the displaced result state's trip back), and the target
// must not have flapped churnFlapCap times (ChurnState). Accepted moves are
// applied on a clone, the dependence structure replayed, and the result
// committed only when it is verifier-clean AND the total accounting wins:
// MovementAfter + MigrationTraffic <= MovementBefore. On any rejection —
// pricing failure, verifier or accounting — a clone of s with its hops
// refreshed on the recovered mesh is returned with Accepted=false;
// re-integration never makes things worse. Only a malformed schedule (see
// RepairSchedule) is an error. s is never mutated.
//
// The no-thrash invariant follows by construction: a task returns only when
// its saving clears the hysteresis margin, and after an element's second
// failure the churn cap refuses it outright, so N repeated fault/revive
// cycles of the same element cost O(1) migrations total after the first.
func ReintegrateOnline(s *Schedule, m *mesh.Mesh, f *mesh.FaultSet, revived []mesh.NodeID, churn *ChurnState, check RepairChecker) (*Schedule, *ReintegrateReport, error) {
	if err := CheckShape(s, m); err != nil {
		return nil, nil, err
	}
	rep := &ReintegrateReport{}
	plan := planReintegration(s, m, f, revived, churnHysteresis, churn, rep)
	if plan.moved == nil {
		return plan.residual, rep, nil
	}

	c := plan.moved
	replayArcs(c, plan.dist)
	after, err := MovementOn(c, m, f)
	if err != nil || after+plan.traffic > rep.MovementBefore {
		return plan.residual, rep, nil
	}
	if verr := ValidateScheduleOn(c, m, f); verr != nil {
		return plan.residual, rep, nil
	}
	if check != nil && check(c) != nil {
		return plan.residual, rep, nil
	}

	rep.Accepted = true
	rep.Migrated = plan.returns
	rep.MigrationTraffic = plan.traffic
	rep.MovementAfter = after
	return c, rep, nil
}

// reintegrationPlan is ReintegrateOnline's decision, before the dependence
// replay and the commit gates.
type reintegrationPlan struct {
	// residual is the stay-put residual, its hops refreshed on the
	// post-recovery mesh; dist holds that mesh's live-route distances.
	residual *Schedule
	dist     *mesh.DistanceTable
	// moved is a clone of residual with the accepted returns applied (nil
	// when no task returns); its arc set is not yet replayed. returns counts
	// the moved tasks and traffic their migration cost.
	moved   *Schedule
	returns int
	traffic int64
}

// planReintegration clones s, refreshes the clone's hops, prices every
// task's return to a revived node, and applies the returns whose saving
// clears h x their migration cost on a second clone, filling rep's
// candidate, declined and movement-before fields.
func planReintegration(s *Schedule, m *mesh.Mesh, f *mesh.FaultSet, revived []mesh.NodeID, h float64, churn *ChurnState, rep *ReintegrateReport) reintegrationPlan {
	residual := s.Clone()

	// The residual's hop annotations were computed on the pre-recovery mesh;
	// routes shorten once elements revive, so refresh every arc against the
	// post-recovery distances before deciding anything — the network routes
	// on the live mesh, not on the planner's stale metadata. This keeps even
	// the stay-put residual verifier-clean on the recovered topology.
	dist := m.AllDistancesAvoiding(f)
	plan := reintegrationPlan{residual: residual, dist: dist}
	refreshHops(residual, dist)

	// Usable revived targets only; a half-revived node (router back, tile
	// still dead) cannot host work.
	targets := make([]mesh.NodeID, 0, len(revived))
	for _, r := range revived {
		if f.NodeUsable(r) {
			targets = append(targets, r)
		}
	}
	if len(targets) == 0 || len(residual.Tasks) == 0 {
		return plan
	}
	before, err := MovementOn(residual, m, f)
	if err != nil {
		// The residual cannot be priced on this mesh (partitioned pair):
		// nothing to optimize, stay put.
		return plan
	}
	rep.MovementBefore = before
	rep.MovementAfter = before

	// Reverse dependence index: consumers[p] lists the tasks waiting on p,
	// so a move can price the outgoing sync arcs it re-routes.
	consumers := make([][]int, len(residual.Tasks))
	for i, t := range residual.Tasks {
		for _, p := range t.WaitFor {
			consumers[p] = append(consumers[p], i)
		}
	}

	// Price each residual task's best return, in ID order. The price is the
	// full objective delta MovementOn would see — fetch hops, incoming and
	// outgoing sync arcs, and a migrated root's result-line reacquisition —
	// not just the fetch term; anything cheaper to compute here would pass
	// candidates the commit-time accounting gate is guaranteed to refuse.
	type move struct {
		idx  int
		to   mesh.NodeID
		cost int64
	}
	var moves []move
	for i, t := range residual.Tasks {
		cur := t.Node
		var curCost int64
		priceable := true
		for _, fe := range t.Fetches {
			if fe.L1Hit || fe.From == cur {
				continue
			}
			d := dist.Between(fe.From, cur)
			if d < 0 {
				priceable = false
				break
			}
			curCost += int64(d)
		}
		if !priceable {
			continue
		}
		bestR, bestAlt := mesh.InvalidNode, int64(-1)
		for _, r := range targets {
			if r == cur {
				continue
			}
			var alt int64
			ok := true
			// On a new node every warm copy is cold: all fetches pay hops.
			for _, fe := range t.Fetches {
				d := dist.Between(fe.From, r)
				if d < 0 {
					ok = false
					break
				}
				alt += int64(d)
			}
			if ok && t.IsRoot && !fetchesLine(t, t.ResultLine) {
				// A migrated root reacquires its result line from the node
				// that held it; that fetch is charged like any other.
				if d := dist.Between(cur, r); d >= 0 {
					alt += int64(d)
				} else {
					ok = false
				}
			}
			// Sync-arc delta: the task's incoming waits re-route to r, and
			// every consumer's wait on this task re-routes from r.
			for j, p := range t.WaitFor {
				if !ok {
					break
				}
				d := dist.Between(residual.Tasks[p].Node, r)
				if d < 0 {
					ok = false
					break
				}
				alt += int64(d) - int64(t.WaitHops[j])
			}
			for _, ci := range consumers[i] {
				if !ok {
					break
				}
				cn := residual.Tasks[ci].Node
				dNew, dOld := dist.Between(r, cn), dist.Between(cur, cn)
				if dNew < 0 || dOld < 0 {
					ok = false
					break
				}
				alt += int64(dNew) - int64(dOld)
			}
			if !ok {
				continue
			}
			if bestR == mesh.InvalidNode || alt < bestAlt || (alt == bestAlt && r < bestR) {
				bestR, bestAlt = r, alt
			}
		}
		if bestR == mesh.InvalidNode {
			continue
		}
		saving := curCost - bestAlt
		if saving <= 0 {
			continue
		}
		rep.Candidates++
		if churn.Failures(bestR) >= churnFlapCap {
			rep.DeclinedChurn++
			continue
		}
		back := dist.Between(cur, bestR)
		if back < 0 {
			continue
		}
		// The task has not run: its inputs are fetched at execution wherever
		// it lands, so only the displaced result-line state pays the trip
		// back. (Charging the fetches too would make a return provably never
		// profitable — the triangle inequality caps the per-fetch saving at
		// one trip each.)
		migCost := int64(back)
		if float64(saving) <= h*float64(migCost) {
			rep.DeclinedHysteresis++
			continue
		}
		moves = append(moves, move{idx: i, to: bestR, cost: migCost})
	}
	if len(moves) == 0 {
		return plan
	}

	// Apply the accepted moves on a clone, with repair's migration side
	// effects (moveTask): migrated roots reacquire their result line from
	// the node that held it.
	c := residual.Clone()
	for _, mv := range moves {
		t := c.Tasks[mv.idx]
		plan.traffic += mv.cost
		moveTask(t, mv.to, t.Node, m)
	}
	plan.moved, plan.returns = c, len(moves)
	return plan
}

package exp

import (
	"context"
	"fmt"
	"time"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/sim"
	"dmacp/internal/stats"
)

// churnLevels is the churn sweep's fault ladder: each level kills the
// victim tile plus Tiles-1 random non-MC tiles and the listed random links
// (the victim alone, then the victim and 2 dead links).
var churnLevels = []FaultLevel{{Tiles: 1}, {Links: 2, Tiles: 1}}

const (
	// churnArrivalFrac places each fault arrival at this fraction of the
	// pristine makespan.
	churnArrivalFrac = 0.5
	// churnCycles is the kill/revive repetition count of the no-thrash probe;
	// the bound allows migrations only on cycle 0.
	churnCycles = 3
)

// ChurnAppRow aggregates one workload's churn events.
type ChurnAppRow struct {
	App string
	// Events counts fault/recovery event pairs; Accepted the re-integrations
	// that passed the accounting and verifier gates.
	Events, Accepted int
	// Migrated is the total tasks moved back to revived elements.
	Migrated int
	// ReclaimedRatio is the mean movement reclaimed by accepted
	// re-integrations, (before - after - migration) / pristine movement.
	ReclaimedRatio float64
}

// ChurnSweepResult aggregates one churn sweep.
type ChurnSweepResult struct {
	// Levels echoes the fault ladder (each level is the victim tile plus the
	// listed random extras).
	Levels []FaultLevel
	// Events counts mid-run fault arrivals; Repaired those with a
	// verifier-clean residual; Accepted the re-integrations committed after
	// the recovery.
	Events, Repaired, Accepted int
	// Migrated tasks moved back; DeclinedChurn/DeclinedHysteresis the
	// candidates refused by the flap cap and the hysteresis margin.
	Migrated, DeclinedChurn, DeclinedHysteresis int
	// MigrationTraffic is the total bytes x hops charged for accepted
	// re-integration moves.
	MigrationTraffic int64
	// NoThrashCycles counts kill/revive cycles driven through the churn
	// state; DeadlineEvents the deadline-bounded repair probes.
	NoThrashCycles, DeadlineEvents int
	// PerApp holds one row per workload in suite order.
	PerApp []ChurnAppRow
	// Unrepairable lists events the escalation ladder gave up on.
	Unrepairable []string
	// Violations lists contract breaches: verifier-refuted schedules, an
	// accepted re-integration that loses movement, a thrashing kill/revive
	// cycle, an unbounded repair worse than the expired-deadline one, or a
	// simulation rejecting an accepted schedule. Empty means the churn gate
	// holds.
	Violations []string
}

// churnTally is one series' share of a churn sweep.
type churnTally struct {
	events, repaired         int
	accepted, migrated       int
	declinedChurn            int
	declinedHyst             int
	traffic                  int64
	reclaimedSum             float64
	thrashCycles             int
	deadlineEvents           int
	unrepairable, violations []string
}

// ChurnSweep drives the full churn lifecycle over every workload: a fault
// set (victim tile + random extras) strikes mid-run and is repaired through
// the checkpointed online path; the dead elements then recover, and
// ReintegrateOnline decides — under hysteresis and the flap cap — whether to
// migrate displaced work back. On top of the event pairs it runs two
// resilience probes per series: a kill/revive churn loop proving the
// no-thrash bound (cycles after the first migrate zero tasks), and a
// deadline probe proving an expired deadline still returns a verifier-clean
// greedy repair that an unbounded run never beats by regressing.
func ChurnSweep(cfg GateConfig) (*ChurnSweepResult, error) {
	apps, byApp, err := runSeries("churnsweep", cfg, func(s *gateSeries, out *churnTally) error {
		part, m := s.part, s.opts.Mesh
		pristine, err := core.MovementOn(part.Schedule, m, nil)
		if err != nil || pristine == 0 {
			return fmt.Errorf("exp: churnsweep %s pristine movement: %v", s.nest.Name, err)
		}
		baseCfg := sim.DefaultConfig(m)
		baseSim, err := sim.Run(part.Schedule, baseCfg)
		if err != nil {
			return fmt.Errorf("exp: churnsweep %s base sim: %w", s.nest.Name, err)
		}

		// The victim: the first non-MC tile hosting tasks, so the fault
		// displaces real work and the recovery offers something to reclaim.
		victim := mesh.InvalidNode
		hosts := make(map[mesh.NodeID]int)
		for i := range part.Schedule.Tasks {
			hosts[part.Schedule.Tasks[i].Node]++
		}
		for n := mesh.NodeID(0); int(n) < m.Nodes(); n++ {
			if !m.IsMemoryController(n) && hosts[n] > 0 {
				victim = n
				break
			}
		}
		if victim == mesh.InvalidNode {
			return nil // nothing to churn; contributes an empty tally
		}
		ro := core.RepairOptions{LoadThreshold: s.opts.LoadThreshold}

		for li, lvl := range churnLevels {
			extraTiles := lvl.Tiles - 1
			if extraTiles < 0 {
				extraTiles = 0
			}
			f := mesh.Inject(m, s.seed+int64(li), lvl.Links, lvl.Routers, extraTiles, true)
			f.KillTile(victim)
			variant := fmt.Sprintf("%s level=%s victim=%d seed=%d faults=[%s]",
				s.variant(), lvl, victim, s.seed+int64(li), f)
			out.events++

			// One instrumented run cuts the fault arrival; the recovery later
			// in this series resumes from the same checkpoint.
			evCfg := baseCfg
			evCfg.FaultEvents = []sim.FaultEvent{{Cycle: churnArrivalFrac * baseSim.Cycles, Faults: f}}
			evSim, err := sim.Run(part.Schedule, evCfg)
			if err != nil {
				return fmt.Errorf("exp: churnsweep %s instrumented sim: %w", variant, err)
			}
			ck := evSim.Checkpoints[0]

			completed := ck.CompletedInstances(part.Schedule)
			residual, _, err := core.RepairOnlineCtx(context.Background(), part.Schedule, ck, m, f,
				ro, s.checker(f, completed))
			if err != nil {
				out.unrepairable = append(out.unrepairable, fmt.Sprintf("%s: %v", variant, err))
				continue
			}
			out.repaired++

			// The dead elements come back: decide per displaced task whether
			// migrating home beats staying put, under hysteresis and the
			// flap cap.
			cleared := f.Clone()
			rec := f.RecoveryAll()
			cleared.Revive(rec)
			revived := mesh.RevivedNodes(m, f, cleared)
			churn := core.NewChurnState()
			churn.Observe(m, f)
			churn.Observe(m, cleared)
			back, rrep, err := core.ReintegrateOnline(context.Background(), residual, nil, m, cleared,
				revived, churn, s.checker(cleared, completed))
			if err != nil {
				out.violations = append(out.violations, fmt.Sprintf(
					"%s: re-integration must fall back, not fail: %v", variant, err))
				continue
			}
			out.declinedChurn += rrep.DeclinedChurn
			out.declinedHyst += rrep.DeclinedHysteresis
			if rrep.Accepted {
				if rrep.MovementAfter+rrep.MigrationTraffic > rrep.MovementBefore {
					out.violations = append(out.violations, fmt.Sprintf(
						"%s: accepted re-integration loses movement: after %d + traffic %d > before %d",
						variant, rrep.MovementAfter, rrep.MigrationTraffic, rrep.MovementBefore))
					continue
				}
				out.accepted++
				out.migrated += rrep.Migrated
				out.traffic += rrep.MigrationTraffic
				out.reclaimedSum += float64(rrep.MovementBefore-rrep.MovementAfter-rrep.MigrationTraffic) / float64(pristine)
			}
			if err := core.ValidateScheduleOn(back, m, cleared); err != nil {
				out.violations = append(out.violations, fmt.Sprintf(
					"%s: re-integrated schedule not verifier-clean: %v", variant, err))
				continue
			}
			// Prove the re-integrated residual executes on the recovered
			// mesh, resuming from the checkpointed node horizons.
			resCfg := baseCfg
			resCfg.Faults = cleared
			resCfg.NodeFreeAt = ck.NodeFree
			if _, rerr := sim.Run(back, resCfg); rerr != nil {
				out.violations = append(out.violations, fmt.Sprintf(
					"%s: recovered-mesh simulation rejected the re-integrated schedule: %v", variant, rerr))
			}
		}

		// No-thrash probe: churn the victim tile for churnCycles kill/revive
		// rounds; the bound allows migrations only on the first revive.
		{
			sched := part.Schedule
			f := mesh.NewFaultSet()
			churn := core.NewChurnState()
			for c := 0; c < churnCycles; c++ {
				f.KillTile(victim)
				churn.Observe(m, f)
				repaired, _, err := core.RepairVerified(sched, m, f, ro, nil)
				if err != nil {
					out.violations = append(out.violations, fmt.Sprintf(
						"%s churn cycle %d: repair failed: %v", s.nest.Name, c, err))
					break
				}
				sched = repaired
				f.ReviveTile(victim)
				churn.Observe(m, f)
				back, rrep, err := core.ReintegrateOnline(context.Background(), sched, nil, m, f,
					[]mesh.NodeID{victim}, churn, nil)
				if err != nil {
					out.violations = append(out.violations, fmt.Sprintf(
						"%s churn cycle %d: re-integration failed: %v", s.nest.Name, c, err))
					break
				}
				sched = back
				out.thrashCycles++
				out.declinedChurn += rrep.DeclinedChurn
				if c >= 1 && rrep.Migrated != 0 {
					out.violations = append(out.violations, fmt.Sprintf(
						"%s: no-thrash violated: churn cycle %d migrated %d tasks",
						s.nest.Name, c, rrep.Migrated))
				}
			}
		}

		// Deadline probe: an expired budget must still return a
		// verifier-clean greedy repair, and a run whose deadline cannot pass
		// must never end up with more movement than that repair. Neither
		// outcome depends on timing, so the sweep stays byte-identical at
		// every -j.
		{
			f := mesh.NewFaultSet()
			f.KillTile(victim)
			out.deadlineEvents++
			expired, cancel := context.WithDeadline(context.Background(), time.Time{})
			defer cancel()
			bounded, brep, err := core.RepairVerifiedCtx(expired, part.Schedule, m, f, ro, nil)
			if err != nil {
				out.violations = append(out.violations, fmt.Sprintf(
					"%s: deadline repair with an incumbent failed: %v", s.nest.Name, err))
			} else if err := core.ValidateScheduleOn(bounded, m, f); err != nil {
				out.violations = append(out.violations, fmt.Sprintf(
					"%s: deadline incumbent not verifier-clean: %v", s.nest.Name, err))
			} else {
				unbounded, cancel := context.WithTimeout(context.Background(), time.Hour)
				defer cancel()
				_, urep, uerr := core.RepairVerifiedCtx(unbounded, part.Schedule, m, f, ro, nil)
				if uerr != nil {
					out.violations = append(out.violations, fmt.Sprintf(
						"%s: unbounded repair failed: %v", s.nest.Name, uerr))
				} else if urep.MovementAfter > brep.MovementAfter {
					out.violations = append(out.violations, fmt.Sprintf(
						"%s: unbounded repair (%d) worse than the pre-deadline incumbent (%d)",
						s.nest.Name, urep.MovementAfter, brep.MovementAfter))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &ChurnSweepResult{Levels: churnLevels, PerApp: make([]ChurnAppRow, len(apps))}
	for ai, outs := range byApp {
		row := &res.PerApp[ai]
		row.App = apps[ai]
		for _, out := range outs {
			res.Events += out.events
			res.Repaired += out.repaired
			res.Accepted += out.accepted
			res.Migrated += out.migrated
			res.DeclinedChurn += out.declinedChurn
			res.DeclinedHysteresis += out.declinedHyst
			res.MigrationTraffic += out.traffic
			res.NoThrashCycles += out.thrashCycles
			res.DeadlineEvents += out.deadlineEvents
			row.Events += out.events
			row.Accepted += out.accepted
			row.Migrated += out.migrated
			row.ReclaimedRatio += out.reclaimedSum
			res.Unrepairable = append(res.Unrepairable, out.unrepairable...)
			res.Violations = append(res.Violations, out.violations...)
		}
		if row.Accepted > 0 {
			row.ReclaimedRatio /= float64(row.Accepted)
		}
	}
	return res, nil
}

// ChurnSweep exposes the fault-churn resilience harness as an experiment
// entry (-run churnsweep).
func (r *Runner) ChurnSweep() (*Experiment, error) {
	res, err := ChurnSweep(GateConfig{Scale: r.Scale, Jobs: r.Jobs})
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		ID:         "churnsweep",
		Title:      "Fault churn: recovery events, hysteresis re-integration, no-thrash and deadline bounds",
		PaperClaim: "recovered elements are re-integrated only when movement accounting wins; alternating fault/recovery cannot thrash; deadline-bounded repair returns a verifier-clean incumbent (robustness extension, not in the paper)",
		Table:      &stats.Table{Header: []string{"Metric", "Value"}},
		Headline: map[string]float64{
			"violations": float64(len(res.Violations)),
		},
	}
	e.Table.Add("events (fault+recovery pairs)", res.Events)
	e.Table.Add("repaired+verified", res.Repaired)
	e.Table.Add("re-integrations accepted", res.Accepted)
	e.Table.Add("tasks migrated back", res.Migrated)
	e.Table.Add("migration traffic (bytes x hops)", res.MigrationTraffic)
	e.Table.Add("declined by flap cap", res.DeclinedChurn)
	e.Table.Add("declined by hysteresis", res.DeclinedHysteresis)
	e.Table.Add("no-thrash cycles driven", res.NoThrashCycles)
	e.Table.Add("deadline probes", res.DeadlineEvents)
	for _, row := range res.PerApp {
		e.Table.Add(row.App, fmt.Sprintf("events %d  accepted %d  migrated %d  reclaimed %.4f",
			row.Events, row.Accepted, row.Migrated, row.ReclaimedRatio))
	}
	addCapped(e.Table, "unrepairable", res.Unrepairable)
	addCapped(e.Table, "violation", res.Violations)
	return e, nil
}

package exp

import (
	"fmt"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/sim"
	"dmacp/internal/stats"
)

// onlineLevels is the ladder of fault sets that arrive mid-run: 1..3 dead
// links, then 3 dead links plus 1 and 2 dead non-MC tiles.
var onlineLevels = []FaultLevel{{Links: 1}, {Links: 2}, {Links: 3}, {Links: 3, Tiles: 1}, {Links: 3, Tiles: 2}}

// onlineArrivalFracs places each level's fault arrivals at these fractions
// of the pristine makespan, one event per (level, fraction).
var onlineArrivalFracs = []float64{0.25, 0.5, 0.75}

// OnlineAppRow aggregates one workload's online events: mean residual
// repaired movement under the shipped batched path and the greedy baseline
// (both normalized by pristine full movement), and the mean online vs
// re-partition-from-scratch totals.
type OnlineAppRow struct {
	App    string
	Events int
	// BatchedRatio and GreedyRatio are mean residual MovementAfter /
	// pristine full movement under the two assignment paths.
	BatchedRatio, GreedyRatio float64
	// OnlineTotal is mean (migration traffic + batched residual movement) /
	// pristine movement; ScratchTotal is the mean full re-placement movement
	// ratio of the same events.
	OnlineTotal, ScratchTotal float64
}

// OnlineSweepResult aggregates one online sweep.
type OnlineSweepResult struct {
	// Levels echoes the arrival ladder. Per level (means over events):
	// OnlineTotalRatio = (migration + residual movement) / pristine movement,
	// ScratchTotalRatio the same for re-partition-from-scratch, and
	// MigrationOverhead the migration-traffic share of pristine movement.
	Levels            []FaultLevel
	OnlineTotalRatio  []float64
	ScratchTotalRatio []float64
	MigrationOverhead []float64
	// Events counts fault arrivals swept; Repaired those that produced a
	// verifier-clean residual schedule; ResidualTasks/CompletedTasks sum the
	// checkpoint splits; SpilledL1Lines/RehomedPages the migrated state.
	Events, Repaired              int
	ResidualTasks, CompletedTasks int
	SpilledL1Lines, RehomedPages  int
	// PerApp holds one row per workload in suite order.
	PerApp []OnlineAppRow
	// Unrepairable lists events the escalation ladder gave up on, with the
	// fault seed, dead elements and the stage reached — acceptable outcomes,
	// reported for diagnosis.
	Unrepairable []string
	// Violations lists contract breaches: verifier-refuted repairs that were
	// not caught by the ladder, simulation rejections of accepted residuals,
	// or a batched repair moving more data than greedy. Empty means the
	// online gate holds.
	Violations []string
}

// onlineTally is one series' share of an online sweep: per-level sums, and
// per-app sums over all of the series' events.
type onlineTally struct {
	onlineSums, scratchSums   []float64
	migSums                   []float64
	counts                    []int
	events, repaired          int
	residual, completed       int
	spilled, rehomed          int
	batchedSum, greedySum     float64
	totalOnline, totalScratch float64
	eventsCounted             int
	unrepairable, violations  []string
}

// OnlineSweep partitions every workload, simulates the pristine run to get
// per-event checkpoints (fault arrival at frac x makespan), then for each
// event repairs the residual schedule through the verifier-gated ladder
// twice — the shipped batched (best-of min-cost/greedy) path and the greedy
// ID-order baseline — and once re-partitions from scratch (full verified
// re-placement of the whole schedule). Accepted residuals are re-simulated
// on the degraded mesh, resuming from the checkpoint's node horizons.
func OnlineSweep(cfg GateConfig) (*OnlineSweepResult, error) {
	nl := len(onlineLevels)
	apps, byApp, err := runSeries("onlinesweep", cfg, func(s *gateSeries, out *onlineTally) error {
		out.onlineSums = make([]float64, nl)
		out.scratchSums = make([]float64, nl)
		out.migSums = make([]float64, nl)
		out.counts = make([]int, nl)

		m := s.opts.Mesh
		pristine, err := core.MovementOn(s.part.Schedule, m, nil)
		if err != nil || pristine == 0 {
			return fmt.Errorf("exp: onlinesweep %s pristine movement: %v", s.nest.Name, err)
		}
		baseCfg := sim.DefaultConfig(m)
		baseSim, err := sim.Run(s.part.Schedule, baseCfg)
		if err != nil {
			return fmt.Errorf("exp: onlinesweep %s base sim: %w", s.nest.Name, err)
		}

		// One fault set per level (nested: same seed), one event per
		// (level, frac); a single instrumented run cuts every checkpoint.
		faults := make([]*mesh.FaultSet, nl)
		evCfg := baseCfg
		for li, lvl := range onlineLevels {
			faults[li] = mesh.Inject(m, s.seed, lvl.Links, lvl.Routers, lvl.Tiles, true)
			for _, frac := range onlineArrivalFracs {
				evCfg.FaultEvents = append(evCfg.FaultEvents, sim.FaultEvent{
					Cycle: frac * baseSim.Cycles, Faults: faults[li],
				})
			}
		}
		evSim, err := sim.Run(s.part.Schedule, evCfg)
		if err != nil {
			return fmt.Errorf("exp: onlinesweep %s instrumented sim: %w", s.nest.Name, err)
		}

		for ei, ev := range evCfg.FaultEvents {
			li := ei / len(onlineArrivalFracs)
			fs := faults[li]
			ck := evSim.Checkpoints[ei]
			variant := fmt.Sprintf("%s level=%s at=%.0f seed=%d faults=[%s]",
				s.variant(), onlineLevels[li], ev.Cycle, s.seed, fs)
			out.events++

			checker := s.checker(fs, ck.CompletedInstances(s.part.Schedule))
			ro := core.RepairOptions{LoadThreshold: s.opts.LoadThreshold}
			batched, orep, err := core.RepairOnline(s.part.Schedule, ck, m, fs, ro, checker)
			if err != nil {
				out.unrepairable = append(out.unrepairable, fmt.Sprintf("%s: %v", variant, err))
				continue
			}
			roGreedy := ro
			roGreedy.Strategy = core.AssignGreedy
			_, grep, gerr := core.RepairOnline(s.part.Schedule, ck, m, fs, roGreedy, checker)
			if gerr != nil {
				// The batched path repaired what greedy could not: count the
				// event as batched-only, no comparison row.
				out.unrepairable = append(out.unrepairable, fmt.Sprintf("%s (greedy baseline): %v", variant, gerr))
				continue
			}
			if orep.Repair.MovementAfter > grep.Repair.MovementAfter {
				out.violations = append(out.violations, fmt.Sprintf(
					"%s: batched repair moves %d, greedy moves %d", variant,
					orep.Repair.MovementAfter, grep.Repair.MovementAfter))
			}

			roFull := ro
			roFull.Full = true
			_, srep, serr := core.RepairVerified(s.part.Schedule, m, fs, roFull, s.checker(fs, nil))
			if serr != nil {
				out.unrepairable = append(out.unrepairable, fmt.Sprintf("%s (scratch baseline): %v", variant, serr))
				continue
			}

			// Prove the accepted residual executes: degraded mesh, resuming
			// from the checkpointed node horizons.
			resCfg := baseCfg
			resCfg.Faults = fs
			resCfg.NodeFreeAt = ck.NodeFree
			if _, rerr := sim.Run(batched, resCfg); rerr != nil {
				out.violations = append(out.violations, fmt.Sprintf(
					"%s: degraded simulation rejected the accepted residual: %v", variant, rerr))
				continue
			}

			out.repaired++
			out.residual += orep.ResidualTasks
			out.completed += orep.CompletedTasks
			out.spilled += orep.SpilledL1Lines
			out.rehomed += orep.RehomedPages

			p := float64(pristine)
			onlineTotal := (float64(orep.MigrationTraffic) + float64(orep.Repair.MovementAfter)) / p
			scratchTotal := float64(srep.MovementAfter) / p
			out.onlineSums[li] += onlineTotal
			out.scratchSums[li] += scratchTotal
			out.migSums[li] += float64(orep.MigrationTraffic) / p
			out.counts[li]++
			out.batchedSum += float64(orep.Repair.MovementAfter) / p
			out.greedySum += float64(grep.Repair.MovementAfter) / p
			out.totalOnline += onlineTotal
			out.totalScratch += scratchTotal
			out.eventsCounted++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &OnlineSweepResult{Levels: onlineLevels, PerApp: make([]OnlineAppRow, len(apps))}
	onlineSums := make([]float64, nl)
	scratchSums := make([]float64, nl)
	migSums := make([]float64, nl)
	counts := make([]int, nl)
	for ai, outs := range byApp {
		row := &res.PerApp[ai]
		row.App = apps[ai]
		for _, out := range outs {
			for li := 0; li < nl; li++ {
				onlineSums[li] += out.onlineSums[li]
				scratchSums[li] += out.scratchSums[li]
				migSums[li] += out.migSums[li]
				counts[li] += out.counts[li]
			}
			res.Events += out.events
			res.Repaired += out.repaired
			res.ResidualTasks += out.residual
			res.CompletedTasks += out.completed
			res.SpilledL1Lines += out.spilled
			res.RehomedPages += out.rehomed
			row.Events += out.eventsCounted
			row.BatchedRatio += out.batchedSum
			row.GreedyRatio += out.greedySum
			row.OnlineTotal += out.totalOnline
			row.ScratchTotal += out.totalScratch
			res.Unrepairable = append(res.Unrepairable, out.unrepairable...)
			res.Violations = append(res.Violations, out.violations...)
		}
		if row.Events > 0 {
			n := float64(row.Events)
			row.BatchedRatio /= n
			row.GreedyRatio /= n
			row.OnlineTotal /= n
			row.ScratchTotal /= n
		}
	}
	res.OnlineTotalRatio = make([]float64, nl)
	res.ScratchTotalRatio = make([]float64, nl)
	res.MigrationOverhead = make([]float64, nl)
	for li := 0; li < nl; li++ {
		if counts[li] > 0 {
			res.OnlineTotalRatio[li] = onlineSums[li] / float64(counts[li])
			res.ScratchTotalRatio[li] = scratchSums[li] / float64(counts[li])
			res.MigrationOverhead[li] = migSums[li] / float64(counts[li])
		}
	}
	return res, nil
}

// OnlineSweep exposes the mid-run fault-arrival harness as an experiment
// entry (-run onlinesweep).
func (r *Runner) OnlineSweep() (*Experiment, error) {
	res, err := OnlineSweep(GateConfig{Scale: r.Scale, Jobs: r.Jobs})
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		ID:         "onlinesweep",
		Title:      "Online fault arrival: checkpointed re-repair vs re-partition-from-scratch",
		PaperClaim: "mid-run faults are repaired verifier-clean; batched assignment never moves more than greedy; re-repair beats re-partitioning (robustness extension, not in the paper)",
		Table:      &stats.Table{Header: []string{"Fault level", "Online total", "Scratch total", "Migration share"}},
		Headline: map[string]float64{
			"violations": float64(len(res.Violations)),
		},
	}
	for i, lvl := range res.Levels {
		e.Table.Add(lvl.String(), fmt.Sprintf("%.4f", res.OnlineTotalRatio[i]),
			fmt.Sprintf("%.4f", res.ScratchTotalRatio[i]),
			fmt.Sprintf("%.4f", res.MigrationOverhead[i]))
	}
	for _, row := range res.PerApp {
		e.Table.Add(row.App, fmt.Sprintf("batched %.4f  greedy %.4f  online %.4f  scratch %.4f",
			row.BatchedRatio, row.GreedyRatio, row.OnlineTotal, row.ScratchTotal))
	}
	e.Table.Add("events swept", res.Events)
	e.Table.Add("repaired+verified", res.Repaired)
	e.Table.Add("residual tasks", res.ResidualTasks)
	e.Table.Add("completed tasks", res.CompletedTasks)
	e.Table.Add("spilled L1 lines", res.SpilledL1Lines)
	e.Table.Add("rehomed pages", res.RehomedPages)
	addCapped(e.Table, "unrepairable", res.Unrepairable)
	addCapped(e.Table, "violation", res.Violations)
	return e, nil
}

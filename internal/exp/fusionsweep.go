// Differential gate for the producer→consumer fusion pre-pass: every
// workload is partitioned twice — fusion on and off — and the fused run must
// (a) verify race-free against its coarsened nest, (b) never move more
// bytes×hops than the unfused run, and (c) compute byte-identical array
// contents when the coarsened body is executed instead of the original.
// `make gates` and CI run the gate over all 12 applications.
package exp

import (
	"fmt"

	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/stats"
	"dmacp/internal/verify"
)

// FusionAppRow aggregates one workload's fused-vs-unfused comparison over
// all of its nests.
type FusionAppRow struct {
	App string
	// Merged counts producer statements eliminated across the app's nests.
	Merged int
	// FusedBytesHops / UnfusedBytesHops are total data movement in
	// bytes×hops (line-hops x line size) summed over the app's nests.
	FusedBytesHops, UnfusedBytesHops int64
	// Strict reports a strict movement win for the fused run.
	Strict bool
}

// FusionSweepResult aggregates one differential sweep.
type FusionSweepResult struct {
	// PerApp holds one row per workload in suite order.
	PerApp []FusionAppRow
	// Merges totals eliminated producer statements across the suite.
	Merges int
	// StrictWins counts apps whose fused movement is strictly below unfused.
	StrictWins int
	// Violations lists contract breaches: a verifier-refuted fused schedule,
	// a fused run moving more data than unfused, or a fused execution whose
	// array contents diverge from the original body's. Empty means the
	// fusion gate holds.
	Violations []string
}

// fusionTally is one series' share of a fusion sweep.
type fusionTally struct {
	merged         int
	fused, unfused int64
	violations     []string
}

// FusionSweep partitions every workload nest twice — with and without the
// fusion pre-pass — verifies the fused schedule against the coarsened nest,
// compares total movement, and re-executes the coarsened body against the
// original to prove byte-identical results on all live arrays.
func FusionSweep(cfg GateConfig) (*FusionSweepResult, error) {
	apps, byApp, err := runSeries("fusionsweep", cfg, func(s *gateSeries, out *fusionTally) error {
		partF := s.part
		optsU := s.opts
		optsU.Fuse = false
		partU, err := core.Partition(s.app.Prog, s.nest, s.app.Store, optsU)
		if err != nil {
			return fmt.Errorf("exp: fusionsweep %s unfused: %w", s.nest.Name, err)
		}

		// (a) The fused schedule must be race-free against the nest it was
		// emitted over.
		rep, err := verify.Check(verify.PartitionInput(s.app.Prog, s.app.Store, partF, s.opts), verify.Options{})
		if err != nil {
			return fmt.Errorf("exp: fusionsweep %s verify: %w", s.nest.Name, err)
		}
		for _, d := range rep.Violations {
			out.violations = append(out.violations,
				fmt.Sprintf("%s fused schedule: %s", s.nest.Name, d))
		}

		// (b) Fused movement must never exceed unfused.
		line := int64(s.opts.Layout.LineBytes)
		out.fused = partF.Stats.TotalMovement * line
		out.unfused = partU.Stats.TotalMovement * line
		if out.fused > out.unfused {
			out.violations = append(out.violations, fmt.Sprintf(
				"%s: fused moves %d bytes×hops, unfused %d", s.nest.Name, out.fused, out.unfused))
		}

		if partF.Fusion != nil {
			out.merged = partF.Fusion.Originals() - len(partF.Fusion.Groups)
		}

		// (c) Executing the coarsened body must reproduce the original
		// body's array contents on every live array. Arrays written only by
		// eliminated producers are dead in the fused program.
		if partF.FusedNest != nil {
			out.violations = append(out.violations,
				execDiff(s.app.Prog, s.app.Store, s.nest, partF.FusedNest)...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &FusionSweepResult{PerApp: make([]FusionAppRow, len(apps))}
	for ai, outs := range byApp {
		row := &res.PerApp[ai]
		row.App = apps[ai]
		for _, out := range outs {
			row.Merged += out.merged
			row.FusedBytesHops += out.fused
			row.UnfusedBytesHops += out.unfused
			res.Violations = append(res.Violations, out.violations...)
		}
		row.Strict = row.FusedBytesHops < row.UnfusedBytesHops
		res.Merges += row.Merged
		if row.Strict {
			res.StrictWins++
		}
	}
	return res, nil
}

// execDiff runs the original and fused bodies from clones of the same store
// and reports every element that diverges on a live array (capped at one
// diagnostic per array).
func execDiff(prog *ir.Program, base *ir.Store, orig, fused *ir.Nest) []string {
	ref := base.Clone()
	alt := base.Clone()
	var diags []string
	run := func(st *ir.Store, n *ir.Nest) bool {
		ok := true
		n.ForEachIteration(func(env map[string]int) bool {
			for _, s := range n.Body {
				if err := st.ExecStatement(prog, s, env); err != nil {
					diags = append(diags, fmt.Sprintf("%s: exec %s: %v", n.Name, s, err))
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if !run(ref, orig) || !run(alt, fused) {
		return diags
	}

	written := func(n *ir.Nest) map[string]bool {
		w := make(map[string]bool, len(n.Body))
		for _, s := range n.Body {
			w[s.LHS.Array] = true
		}
		return w
	}
	dead := written(orig)
	for a := range written(fused) {
		delete(dead, a)
	}
	for _, name := range prog.ArrayNames() {
		if dead[name] {
			continue
		}
		arr := prog.Array(name)
		for i := 0; i < arr.Len; i++ {
			if ref.At(name, i) != alt.At(name, i) {
				diags = append(diags, fmt.Sprintf(
					"%s: %s[%d] diverges: original %v fused %v",
					orig.Name, name, i, ref.At(name, i), alt.At(name, i)))
				break
			}
		}
	}
	return diags
}

// FusionSweep regenerates the fusion differential gate as an experiment
// table: per-app fused vs unfused bytes×hops, merges, and violations.
func (r *Runner) FusionSweep() (*Experiment, error) {
	res, err := FusionSweep(GateConfig{Scale: r.Scale, Jobs: r.Jobs})
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		ID:         "fusionsweep",
		Title:      "Fusion pre-pass: fused vs unfused movement (differential gate)",
		PaperClaim: "coarsening single-use producer→consumer pairs removes temporary-array round trips; fused schedules stay verifier-clean and never move more data (compiler extension, not in the paper)",
		Table:      &stats.Table{Header: []string{"App", "Merged", "Fused bytes×hops", "Unfused bytes×hops", "Strict win"}},
		Headline: map[string]float64{
			"merges":     float64(res.Merges),
			"strictWins": float64(res.StrictWins),
			"violations": float64(len(res.Violations)),
		},
	}
	for _, row := range res.PerApp {
		e.Table.Add(row.App, row.Merged,
			fmt.Sprintf("%d", row.FusedBytesHops),
			fmt.Sprintf("%d", row.UnfusedBytesHops),
			fmt.Sprintf("%v", row.Strict))
	}
	addCapped(e.Table, "violation", res.Violations)
	return e, nil
}

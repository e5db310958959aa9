package core

import (
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
)

// ReduceSyncsPath is ReduceSyncs that also reports whether the walk budget
// ran out and the reachability index answered the rest of the call.
var ReduceSyncsPath = reduceSyncs

// EmitUnreduced returns the schedule one pass at the given window emits for
// nest before DedupeWaits and ReduceSyncs — the input Partition hands the
// sync reduction — without the fusion pre-pass.
func EmitUnreduced(prog *ir.Program, nest *ir.Nest, store *ir.Store, opts Options, window int) (*Schedule, error) {
	tr, err := locateNest(prog, nest, store, &opts)
	if err != nil {
		return nil, err
	}
	return runPass(tr, &opts, window, true).schedule, nil
}

// ReemitDependenceArcs is the repair ladder's dependence replay, and
// ReferenceReemit its pre-rework bitset reference.
var (
	ReemitDependenceArcs = reemitDependenceArcs
	ReferenceReemit      = referenceReemit
)

// ResidualOf cuts s at the checkpoint as RepairOnline does.
func ResidualOf(s *Schedule, ck *Checkpoint) *Schedule {
	rs, _ := buildResidual(s, ck)
	return rs
}

// MigrateForReplay runs repair's migration on s under o's strategy and
// refreshes its hops: the state in which repair hands s to the dependence
// replay. It returns the live-route distances the replay uses.
func MigrateForReplay(s *Schedule, m *mesh.Mesh, f *mesh.FaultSet, o RepairOptions) ([][]int, error) {
	dist, err := migrateStranded(s, m, f, o, &RepairReport{})
	if err != nil {
		return nil, err
	}
	refreshHops(s, dist)
	return dist, nil
}

// ReintegrateForReplay returns the schedule ReintegrateOnline would hand
// the dependence replay, its hops refreshed (nil when no task returns), and
// the distances the replay uses.
func ReintegrateForReplay(s *Schedule, ck *Checkpoint, m *mesh.Mesh, f *mesh.FaultSet, revived []mesh.NodeID, o RepairOptions, churn *ChurnState) (*Schedule, [][]int) {
	plan := planReintegration(s, ck, m, f, revived, o, churn, &ReintegrateReport{})
	if plan.moved != nil {
		refreshHops(plan.moved, plan.dist)
	}
	return plan.moved, plan.dist
}

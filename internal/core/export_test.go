package core

import (
	"fmt"
	"slices"

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
func MigrateForReplay(s *Schedule, m *mesh.Mesh, f *mesh.FaultSet, o RepairOptions) (*mesh.DistanceTable, error) {
	rep := &RepairReport{}
	p, err := strand(s, m, f, o, rep)
	if err != nil {
		return nil, err
	}
	if err := p.place(s, m, o.Strategy, rep); err != nil {
		return nil, err
	}
	refreshHops(s, p.dist)
	return p.dist, nil
}

// ReintegrateForReplay returns the schedule ReintegrateOnline would hand
// the dependence replay, its hops refreshed (nil when no task returns), and
// the distances the replay uses.
func ReintegrateForReplay(s *Schedule, ck *Checkpoint, m *mesh.Mesh, f *mesh.FaultSet, revived []mesh.NodeID, h float64, churn *ChurnState) (*Schedule, *mesh.DistanceTable) {
	plan := planReintegration(s, ck, m, f, revived, h, churn, &ReintegrateReport{})
	if plan.moved != nil {
		refreshHops(plan.moved, plan.dist)
	}
	return plan.moved, plan.dist
}

// CheckSharedPlans locates nest, builds its shared reuse-free plans as a
// window sweep does, and compares every plan and analysis, in each field a
// scheduling pass reads, with a fresh buildPlan + AnalyzeInto from empty reuse
// lists. It also checks that the trace's line interning is a bijection
// onto [0, nLines) and that every plan vertex carries its lines' IDs. It
// returns the first mismatch.
func CheckSharedPlans(prog *ir.Program, nest *ir.Nest, store *ir.Store, opts Options) error {
	tr, err := locateNest(prog, nest, store, &opts)
	if err != nil {
		return err
	}
	idOf, err := internedIDs(tr)
	if err != nil {
		return err
	}
	dt := opts.Mesh.DistanceTable()
	slab, err := buildPlans(tr, dt, opts.Jobs)
	if err != nil {
		return err
	}
	infos := make(map[*ir.Ref]operandInfo)
	lookup := func(r *ir.Ref) operandInfo { return infos[r] }
	for k := range tr.stores {
		tr.fillOperands(infos, k, nil)
		want := buildPlan(dt, tr.pre[k%len(tr.pre)].set, lookup, tr.stores[k])
		got := &slab.plans[k]
		if err := samePlan(got, &slab.ans[k], want, want.AnalyzeInto(&PlanAnalysis{})); err != nil {
			return fmt.Errorf("instance %d: %w", k, err)
		}
		for vi, v := range got.Vertices {
			for i, line := range v.Lines {
				if v.LineIDs[i] != idOf[line] {
					return fmt.Errorf("instance %d vertex %d: line %#x carries ID %d, interned as %d",
						k, vi, line, v.LineIDs[i], idOf[line])
				}
			}
		}
	}
	return nil
}

// internedIDs checks that tr's line IDs are a bijection between the lines
// it located and [0, nLines), and returns the line -> ID map.
func internedIDs(tr *locTrace) (map[uint64]int32, error) {
	idOf := make(map[uint64]int32)
	lineOf := make(map[int32]uint64)
	check := func(locs []LineLoc, ids []int32) error {
		for i, ll := range locs {
			id := ids[i]
			if id < 0 || int(id) >= tr.nLines {
				return fmt.Errorf("line %#x: ID %d outside [0, %d)", ll.Line, id, tr.nLines)
			}
			if prev, ok := idOf[ll.Line]; ok && prev != id {
				return fmt.Errorf("line %#x has IDs %d and %d", ll.Line, prev, id)
			}
			if prev, ok := lineOf[id]; ok && prev != ll.Line {
				return fmt.Errorf("ID %d names lines %#x and %#x", id, prev, ll.Line)
			}
			idOf[ll.Line], lineOf[id] = id, ll.Line
		}
		return nil
	}
	if err := check(tr.stores, tr.storeIDs); err != nil {
		return nil, err
	}
	if err := check(tr.leaves, tr.leafIDs); err != nil {
		return nil, err
	}
	if len(lineOf) != tr.nLines {
		return nil, fmt.Errorf("%d IDs in use, want all of [0, %d)", len(lineOf), tr.nLines)
	}
	return idOf, nil
}

// samePlan reports the first field a scheduling pass reads in which the
// shared plan got and its analysis gan differ from want and wan.
func samePlan(got *StatementPlan, gan *PlanAnalysis, want *StatementPlan, wan *PlanAnalysis) error {
	if got.Root != want.Root || got.Movement != want.Movement || got.ReuseHits != want.ReuseHits {
		return fmt.Errorf("root/movement/reuse hits %d/%d/%d, fresh %d/%d/%d",
			got.Root, got.Movement, got.ReuseHits, want.Root, want.Movement, want.ReuseHits)
	}
	if len(got.Vertices) != len(want.Vertices) {
		return fmt.Errorf("%d vertices, fresh %d", len(got.Vertices), len(want.Vertices))
	}
	for i, g := range got.Vertices {
		w := want.Vertices[i]
		if g.Node != w.Node || g.IsStore != w.IsStore || !slices.Equal(g.Lines, w.Lines) ||
			!slices.Equal(g.MissLines, w.MissLines) || !slices.Equal(g.ReusedLines, w.ReusedLines) ||
			!slices.Equal(g.LineIDs, w.LineIDs) {
			return fmt.Errorf("vertex %d: %+v, fresh %+v", i, g, w)
		}
	}
	if gan.Subcomputations != wan.Subcomputations || gan.Parallelism != wan.Parallelism || gan.Syncs != wan.Syncs {
		return fmt.Errorf("subcomputations/parallelism/syncs %d/%d/%d, fresh %d/%d/%d",
			gan.Subcomputations, gan.Parallelism, gan.Syncs, wan.Subcomputations, wan.Parallelism, wan.Syncs)
	}
	if !slices.Equal(gan.PostOrder, wan.PostOrder) || !slices.Equal(gan.Parent, wan.Parent) ||
		!slices.Equal(gan.OpsAt, wan.OpsAt) || !slices.Equal(gan.EdgeUp, wan.EdgeUp) ||
		len(gan.Children) != len(wan.Children) {
		return fmt.Errorf("analysis %+v, fresh %+v", *gan, *wan)
	}
	for v, c := range gan.Children {
		if !slices.Equal(c, wan.Children[v]) {
			return fmt.Errorf("children of %d: %v, fresh %v", v, c, wan.Children[v])
		}
	}
	return nil
}

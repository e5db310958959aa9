// External tests for package core that need the schedule verifier (package
// verify imports core, so these cannot live in the in-package test files).
package core_test

import (
	"math/rand"
	"testing"

	"dmacp/internal/baseline"
	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/verify"
)

// randomDAG builds a task list with dense random forward arcs (including the
// redundant 2-step chains ReduceSyncs exists to eliminate) spread across
// mesh nodes.
func randomDAG(n int, rng *rand.Rand) []*core.Task {
	tasks := make([]*core.Task, n)
	for i := range tasks {
		t := &core.Task{ID: i, Node: mesh.NodeID(rng.Intn(16)), Iter: i, Stmt: 0}
		for p := 0; p < i; p++ {
			if rng.Intn(3) == 0 {
				t.WaitFor = append(t.WaitFor, p)
				t.WaitHops = append(t.WaitHops, rng.Intn(6))
			}
		}
		tasks[i] = t
	}
	return tasks
}

func cloneTasks(tasks []*core.Task) []*core.Task {
	out := make([]*core.Task, len(tasks))
	for i, t := range tasks {
		c := *t
		c.WaitFor = append([]int(nil), t.WaitFor...)
		c.WaitHops = append([]int(nil), t.WaitHops...)
		out[i] = &c
	}
	return out
}

// TestReduceSyncsPreservesReachability is the sync-sufficiency
// cross-validation from the verification layer: eliminating an arc is only
// legal when the remaining wait structure still implies the same
// happens-before relation. We assert the transitive closure — both the pure
// arc closure and the closure including per-node program order — is
// bit-for-bit identical before and after ReduceSyncs (and DedupeWaits).
func TestReduceSyncsPreservesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		before := randomDAG(60+rng.Intn(80), rng)
		after := cloneTasks(before)
		core.DedupeWaits(after)
		removed := core.ReduceSyncs(after)

		for _, sameNode := range []bool{false, true} {
			cb, stuck := verify.BuildClosure(before, sameNode)
			if cb == nil {
				t.Fatalf("trial %d: before-closure has a cycle: %v", trial, stuck)
			}
			ca, stuck := verify.BuildClosure(after, sameNode)
			if ca == nil {
				t.Fatalf("trial %d: after-closure has a cycle: %v", trial, stuck)
			}
			if !cb.Equal(ca) {
				t.Fatalf("trial %d (sameNodeOrder=%v): ReduceSyncs changed reachability (removed %d arcs)",
					trial, sameNode, removed)
			}
		}
	}
}

// TestReduceSyncsIdempotent: a second reduction pass over an already-reduced
// schedule must find nothing left to eliminate.
func TestReduceSyncsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tasks := randomDAG(100, rng)
	core.DedupeWaits(tasks)
	core.ReduceSyncs(tasks)
	if again := core.ReduceSyncs(tasks); again != 0 {
		t.Errorf("second ReduceSyncs pass removed %d arcs, want 0", again)
	}
}

func extKernel(t *testing.T, src string, iters int) (*ir.Program, *ir.Nest, *ir.Store) {
	t.Helper()
	body, err := ir.ParseStatements(src)
	if err != nil {
		t.Fatal(err)
	}
	nest := &ir.Nest{
		Name:  "ext",
		Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: iters, Step: 1}},
		Body:  body,
	}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, 2048, 8)
	prog.Nests = append(prog.Nests, nest)
	store := ir.NewStore(prog)
	store.FillRandom(prog, 3)
	return prog, nest, store
}

// TestPartitionerSuiteSchedulesVerify runs the race detector over the same
// kernel shapes the in-package partitioner suite exercises, so any emitter
// regression that breaks dependence ordering fails here with a concrete
// counterexample.
func TestPartitionerSuiteSchedulesVerify(t *testing.T) {
	kernels := []string{
		"A(i) = B(i)+C(i)+D(i)+E(i)\nX(i) = Y(i)+C(i)",
		"A(i) = B(i)\nC(i) = A(i)+B(i)",
		"S(0) = S(0)+A(i)",
		"A(i+1) = A(i)+B(i)",
	}
	for _, src := range kernels {
		prog, nest, store := extKernel(t, src, 48)
		opts := core.DefaultOptions()
		res, err := core.Partition(prog, nest, store, opts)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		// DefaultOptions runs the fusion pre-pass; the schedule's statement
		// indices refer to the (possibly coarsened) nest.
		rep, err := verify.Check(verify.Input{
			Prog: prog, Nest: res.ScheduleNest(), Store: store,
			Schedule: res.Schedule, Mesh: opts.Mesh, Layout: opts.Layout,
			Translations: res.Translations, Labels: res.LineLabels,
		}, verify.Options{})
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if !rep.Clean() {
			t.Errorf("%q: partitioner schedule not dependence-preserving:\n%s\n%v",
				src, rep.Summary(), rep.Lines())
		}
	}
}

// TestBaselineSuiteSchedulesVerify does the same for every baseline strategy.
// The accumulator moves its output line from core to core, so a stale copy
// left on an earlier writer's core would surface as a hit on a later chunk.
func TestBaselineSuiteSchedulesVerify(t *testing.T) {
	for _, src := range []string{"A(i) = B(i)+C(i)\nB(i) = A(i)+C(i)", "S(0) = S(0)+A(i)"} {
		prog, nest, store := extKernel(t, src, 48)
		opts := core.DefaultOptions()
		for _, strat := range []baseline.Strategy{baseline.ProfiledLocality, baseline.BlockDistribution, baseline.MCAffine} {
			res, err := baseline.Place(prog, nest, store, opts, strat)
			if err != nil {
				t.Fatalf("%q %v: %v", src, strat, err)
			}
			rep, err := verify.Check(verify.Input{
				Prog: prog, Nest: nest, Store: store,
				Schedule: res.Schedule, Mesh: opts.Mesh, Layout: opts.Layout,
				Translations: res.Translations,
			}, verify.Options{})
			if err != nil {
				t.Fatalf("%q %v: %v", src, strat, err)
			}
			if !rep.Clean() {
				t.Errorf("%q %v: baseline schedule not dependence-preserving:\n%s\n%v",
					src, strat, rep.Summary(), rep.Lines())
			}
		}
	}
}

// External tests for package core that need the schedule verifier (package
// verify imports core, so these cannot live in the in-package test files).
package core_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"dmacp/internal/baseline"
	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/verify"
	"dmacp/internal/workloads"
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

// referenceReduce applies ReduceSyncs' redundancy rule directly to the
// arc-only closure of the input: an entry of a task's WaitFor list is
// dropped when a later entry repeats it, or when the closure orders it
// before a different producer of the same task. It rewrites the lists and
// returns the number of entries dropped.
func referenceReduce(t *testing.T, tasks []*core.Task) int {
	t.Helper()
	c, stuck := verify.BuildClosure(tasks, false)
	if c == nil {
		t.Fatalf("reference: wait graph has a cycle: %v", stuck)
	}
	removed := 0
	for _, task := range tasks {
		var ids, hops []int
		for k, p := range task.WaitFor {
			red := slices.Contains(task.WaitFor[k+1:], p)
			for _, q := range task.WaitFor {
				red = red || (q != p && c.Ordered(p, q))
			}
			if red {
				removed++
				continue
			}
			ids = append(ids, p)
			hops = append(hops, task.WaitHops[k])
		}
		task.WaitFor, task.WaitHops = ids, hops
	}
	return removed
}

// sameWaits reports the first task whose WaitFor or WaitHops differ between
// got and want, or -1.
func sameWaits(got, want []*core.Task) int {
	for i := range want {
		if !slices.Equal(got[i].WaitFor, want[i].WaitFor) || !slices.Equal(got[i].WaitHops, want[i].WaitHops) {
			return i
		}
	}
	return -1
}

// checkAgainstReference runs ReduceSyncs and the closure reference on
// separate copies of tasks and requires identical lists and counts. It
// returns ReduceSyncs' result, the count, and whether the index answered
// part of the call.
func checkAgainstReference(t *testing.T, name string, tasks []*core.Task) ([]*core.Task, int, bool) {
	t.Helper()
	got, want := cloneTasks(tasks), cloneTasks(tasks)
	removed, fellBack := core.ReduceSyncsPath(got)
	if wantRemoved := referenceReduce(t, want); removed != wantRemoved {
		t.Errorf("%s: ReduceSyncs removed %d arcs, reference %d", name, removed, wantRemoved)
	}
	if i := sameWaits(got, want); i >= 0 {
		t.Errorf("%s: task %d: ReduceSyncs kept %v hops %v, reference %v hops %v", name, i,
			got[i].WaitFor, got[i].WaitHops, want[i].WaitFor, want[i].WaitHops)
	}
	return got, removed, fellBack
}

// addImpliedArcs inserts arcs that an irredundant schedule already implies,
// at random positions of the tasks' lists: with probability 1/every a task
// gains an arc from the task reached by walking 1..depth arcs back from one
// of its producers, and with the same probability a copy of one of its
// producers placed before that producer. ReduceSyncs must remove exactly
// these arcs. It returns the number inserted.
func addImpliedArcs(tasks []*core.Task, rng *rand.Rand, every, depth int) int {
	inserted := 0
	insert := func(t *core.Task, at, p, hops int) {
		t.WaitFor = slices.Insert(t.WaitFor, at, p)
		t.WaitHops = slices.Insert(t.WaitHops, at, hops)
		inserted++
	}
	for _, t := range tasks {
		if len(t.WaitFor) == 0 {
			continue
		}
		if rng.Intn(every) == 0 {
			k := rng.Intn(len(t.WaitFor))
			insert(t, rng.Intn(k+1), t.WaitFor[k], t.WaitHops[k])
		}
		if rng.Intn(every) == 0 {
			p := t.WaitFor[rng.Intn(len(t.WaitFor))]
			steps := 1 + rng.Intn(depth)
			for s := 0; s < steps && len(tasks[p].WaitFor) > 0; s++ {
				up := tasks[p].WaitFor
				p = up[rng.Intn(len(up))]
			}
			if !slices.Contains(t.WaitFor, p) {
				insert(t, rng.Intn(len(t.WaitFor)+1), p, rng.Intn(8))
			}
		}
	}
	return inserted
}

// longChainKernel is the kernel whose arc graph is a carried chain that
// every iteration also reaches from its head: A(i+1) = A(i)+B(0) reads B(0),
// written once, along the chain. A walk per task runs back to the head, so
// ReduceSyncs exhausts its walk budget on it and falls back to the index.
const longChainKernel = "B(i) = C(i)\nA(i+1) = A(i)+B(0)"

// TestReduceSyncsMatchesClosureReference cross-checks ReduceSyncs against
// referenceReduce on random DAGs with duplicate entries, on every
// workload's partitioned and baseline schedules with implied arcs
// re-inserted (which must come back byte-identical), and on the long-chain
// kernel's unreduced schedule, which takes the index fallback.
func TestReduceSyncsMatchesClosureReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 8; trial++ {
		tasks := randomDAG(40+rng.Intn(80), rng)
		for _, task := range tasks {
			for d := rng.Intn(3); d > 0 && len(task.WaitFor) > 0; d-- {
				at := rng.Intn(len(task.WaitFor) + 1)
				task.WaitFor = slices.Insert(task.WaitFor, at, task.WaitFor[rng.Intn(len(task.WaitFor))])
				task.WaitHops = slices.Insert(task.WaitHops, at, rng.Intn(6))
			}
		}
		checkAgainstReference(t, "randomDAG", tasks)
	}

	walked := 0
	sc := workloads.TestScale()
	opts := core.DefaultOptions()
	opts.FixedWindow = 4
	for _, name := range workloads.Names() {
		app, err := workloads.Build(name, sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, nest := range app.Nests {
			part, err := core.Partition(app.Prog, nest, app.Store, opts)
			if err != nil {
				t.Fatalf("%s: %v", nest.Name, err)
			}
			base, err := baseline.Place(app.Prog, nest, app.Store, opts, baseline.ProfiledLocality)
			if err != nil {
				t.Fatalf("%s: %v", nest.Name, err)
			}
			for _, s := range []*core.Schedule{part.Schedule, base.Schedule} {
				tasks := cloneTasks(s.Tasks)
				inserted := addImpliedArcs(tasks, rng, 4, 4)
				got, removed, fellBack := checkAgainstReference(t, nest.Name, tasks)
				if removed != inserted {
					t.Errorf("%s: removed %d arcs, inserted %d", nest.Name, removed, inserted)
				}
				if i := sameWaits(got, s.Tasks); i >= 0 {
					t.Errorf("%s: task %d: %v hops %v after reduction, emitted %v hops %v", nest.Name, i,
						got[i].WaitFor, got[i].WaitHops, s.Tasks[i].WaitFor, s.Tasks[i].WaitHops)
				}
				if !fellBack {
					walked++
				}
			}
		}
	}
	if walked == 0 {
		t.Error("no workload schedule was reduced by walks alone")
	}

	prog, nest, store := extKernel(t, longChainKernel, 1024)
	s, err := core.EmitUnreduced(prog, nest, store, opts, opts.FixedWindow)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, fellBack := checkAgainstReference(t, "long chain", s.Tasks); !fellBack {
		t.Error("long chain: walks stayed within budget, want the index fallback")
	}
}

// decodeForwardDAG turns fuzz bytes into a task list whose arcs all point to
// lower IDs. Each byte adds one task; its low two bits pick the shape:
//
//	0: a root, no producers;
//	1: a chain link to the previous task;
//	2: a chain link plus an arc to task (b>>2) mod ID — a run of 0x02 bytes
//	   is the long carried chain reached from its head at every step;
//	3: fan-in from 1+(b>>2)%8 producers drawn from the following bytes,
//	   repeats giving duplicate entries.
//
// Hop counts depend on the entry's position, so keeping the wrong copy of a
// duplicate shows.
func decodeForwardDAG(data []byte) []*core.Task {
	const maxTasks = 512
	var tasks []*core.Task
	for pos := 0; pos < len(data) && len(tasks) < maxTasks; {
		b := data[pos]
		pos++
		i := len(tasks)
		t := &core.Task{ID: i}
		add := func(p int) {
			t.WaitFor = append(t.WaitFor, p)
			t.WaitHops = append(t.WaitHops, (p+len(t.WaitHops))%5)
		}
		if i > 0 {
			switch b % 4 {
			case 1:
				add(i - 1)
			case 2:
				add(i - 1)
				add(int(b>>2) % i)
			case 3:
				for k := 1 + int(b>>2)%8; k > 0 && pos < len(data); k-- {
					add(int(data[pos]) % i)
					pos++
				}
			}
		}
		tasks = append(tasks, t)
	}
	return tasks
}

// FuzzReduceSyncs checks ReduceSyncs against the closure reference on
// decoded forward DAGs, and that a second pass removes nothing.
func FuzzReduceSyncs(f *testing.F) {
	f.Add([]byte{0, 1, 1, 3, 0, 1, 2, 1, 11, 0, 0, 1, 2, 3})
	f.Add(append([]byte{0, 1}, bytes.Repeat([]byte{2}, 62)...))
	f.Add([]byte{0, 0, 0, 0, 31, 3, 2, 1, 0, 3, 2, 1, 0, 1, 2, 30, 4, 4, 4, 4, 4, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks := decodeForwardDAG(data)
		got, _, _ := checkAgainstReference(t, "fuzz", tasks)
		if again := core.ReduceSyncs(got); again != 0 {
			t.Errorf("second pass removed %d arcs", again)
		}
	})
}

func extKernel(t testing.TB, src string, iters int) (*ir.Program, *ir.Nest, *ir.Store) {
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

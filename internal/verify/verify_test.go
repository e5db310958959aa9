package verify_test

import (
	"testing"

	"dmacp/internal/baseline"
	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/verify"
)

// buildKernel assembles a one-loop nest over the statement source with every
// array declared at elems elements, plus a deterministically filled store.
func buildKernel(t *testing.T, src string, iters, elems int) (*ir.Program, *ir.Nest, *ir.Store, core.Options) {
	t.Helper()
	body, err := ir.ParseStatements(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	nest := &ir.Nest{Name: "k", Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: iters, Step: 1}}, Body: body}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, elems, 8)
	prog.Nests = append(prog.Nests, nest)
	store := ir.NewStore(prog)
	store.FillRandom(prog, 7)
	return prog, nest, store, core.DefaultOptions()
}

func partitionInput(t *testing.T, src string, iters, elems int) (verify.Input, core.Options) {
	t.Helper()
	prog, nest, store, opts := buildKernel(t, src, iters, elems)
	res, err := core.Partition(prog, nest, store, opts)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	return verify.PartitionInput(prog, store, res, opts), opts
}

// raceKernel has a flow dependence (stmt 1 reads what stmt 0 wrote), an anti
// dependence (stmt 1 overwrites stmt 0's input) and a scalar accumulator
// exercising WAW chains — the dependence mix the verifier must prove ordered.
const raceKernel = "A(i) = B(i)+C(i)\nB(i) = A(i)+C(i)\nS(0) = S(0)+A(i)"

func TestPartitionerScheduleVerifiesClean(t *testing.T) {
	in, _ := partitionInput(t, raceKernel, 64, 1<<10)
	rep, err := verify.Check(in, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("partitioner schedule not clean:\n%s\n%v", rep.Summary(), rep.Lines())
	}
	if rep.DepsChecked == 0 {
		t.Fatal("no dependence pairs checked; the kernel should produce RAW/WAR/WAW pairs")
	}
}

func TestBaselineSchedulesVerifyClean(t *testing.T) {
	prog, nest, store, opts := buildKernel(t, raceKernel, 64, 1<<10)
	for _, strat := range []baseline.Strategy{baseline.ProfiledLocality, baseline.BlockDistribution, baseline.MCAffine} {
		res, err := baseline.Place(prog, nest, store, opts, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		rep, err := verify.Check(verify.Input{
			Prog: prog, Nest: nest, Store: store,
			Schedule: res.Schedule, Mesh: opts.Mesh, Layout: opts.Layout,
			Translations: res.Translations,
		}, verify.Options{})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if !rep.Clean() {
			t.Fatalf("%v baseline schedule not clean:\n%s\n%v", strat, rep.Summary(), rep.Lines())
		}
	}
}

// TestSeededViolationNamesInstancePair is the acceptance check: corrupting a
// schedule by dropping a required flow-dependence arc must yield a
// RaceDiagnostic naming the exact instance pair the arc ordered.
func TestSeededViolationNamesInstancePair(t *testing.T) {
	// A feeds two consumers so the fusion pre-pass leaves the body alone and
	// the cross-statement flow arc survives to be dropped.
	in, _ := partitionInput(t, "A(i) = B(i)\nC(i) = A(i)+B(i)\nD(i) = A(i)", 64, 1<<10)
	tasks := in.Schedule.Tasks

	// Find a cross-node arc from a root (a writer) to a task fetching the
	// written line whose removal actually breaks the ordering (no alternate
	// wait path), then drop it.
	victim, producer := -1, -1
	for _, tk := range tasks {
		for ai, p := range tk.WaitFor {
			pt := tasks[p]
			if !pt.IsRoot || pt.Node == tk.Node {
				continue
			}
			reads := false
			for _, f := range tk.Fetches {
				if f.Line == pt.ResultLine {
					reads = true
					break
				}
			}
			if !reads {
				continue
			}
			// Tentatively remove and keep the removal only if it truly
			// unorders the pair.
			wf := append([]int(nil), tk.WaitFor...)
			wh := append([]int(nil), tk.WaitHops...)
			tk.WaitFor = append(tk.WaitFor[:ai], tk.WaitFor[ai+1:]...)
			tk.WaitHops = append(tk.WaitHops[:ai], tk.WaitHops[ai+1:]...)
			if hb, _ := verify.BuildClosure(tasks, true); hb != nil && !hb.Ordered(p, tk.ID) {
				victim, producer = tk.ID, p
				break
			}
			tk.WaitFor, tk.WaitHops = wf, wh
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Fatal("no removable flow arc found; kernel or scale too small to seed a violation")
	}

	rep, err := verify.Check(in, verify.Options{MaxDiagnostics: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatalf("dropped arc %d->%d not detected: %s", producer, victim, rep.Summary())
	}
	found := false
	for _, d := range rep.Violations {
		if d.Kind != verify.KindRAW {
			continue
		}
		if d.EarlierTask == producer && d.LaterTask == victim &&
			d.EarlierIter == tasks[producer].Iter && d.EarlierStmt == tasks[producer].Stmt &&
			d.LaterIter == tasks[victim].Iter && d.LaterStmt == tasks[victim].Stmt {
			found = true
			if d.Array == "" {
				t.Error("diagnostic does not name the contended array/line")
			}
		}
	}
	if !found {
		t.Fatalf("no RAW diagnostic names instance pair (task %d -> task %d); got:\n%v", producer, victim, rep.Lines())
	}
}

func TestMissingFetchDetected(t *testing.T) {
	in, _ := partitionInput(t, "A(i) = B(i)+C(i)", 16, 1<<10)
	// Remove every fetch of one required input line from instance (0, 0).
	var line uint64
	ok := false
	for _, tk := range in.Schedule.Tasks {
		if tk.Iter != 0 || tk.Stmt != 0 || len(tk.Fetches) == 0 {
			continue
		}
		line = tk.Fetches[0].Line
		ok = true
		break
	}
	if !ok {
		t.Fatal("no fetch found in instance (0,0)")
	}
	for _, tk := range in.Schedule.Tasks {
		if tk.Iter != 0 || tk.Stmt != 0 {
			continue
		}
		kept := tk.Fetches[:0]
		for _, f := range tk.Fetches {
			if f.Line != line {
				kept = append(kept, f)
			}
		}
		tk.Fetches = kept
	}
	rep, err := verify.Check(in, verify.Options{MaxDiagnostics: 64})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range rep.Violations {
		if d.Kind == verify.KindMissingFetch && d.LaterIter == 0 && d.LaterStmt == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing fetch of line %#x not detected: %v", line, rep.Lines())
	}
}

func TestWrongResultDetected(t *testing.T) {
	in, _ := partitionInput(t, "A(i) = B(i)", 8, 1<<10)
	for _, tk := range in.Schedule.Tasks {
		if tk.IsRoot && tk.Iter == 3 {
			tk.ResultLine += in.Layout.LineBytes
			break
		}
	}
	in.Schedule.NumberLines() // keep the wrong line the only defect
	rep, err := verify.Check(in, verify.Options{MaxDiagnostics: 64})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range rep.Violations {
		if d.Kind == verify.KindWrongResult && d.LaterIter == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupted ResultLine not detected: %v", rep.Lines())
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := mesh.MustNew(2, 2)
	// Task 1 waits on task 0's successor-by-node-order: tasks 0 and 1 share
	// node 0, giving the implicit edge 0 -> 1; the explicit arc 1 -> 0
	// closes the cycle.
	t0 := &core.Task{ID: 0, Node: 0, IsRoot: true, Iter: 0, Stmt: 0}
	t0.WaitFor = []int{1}
	t0.WaitHops = []int{0}
	t1 := &core.Task{ID: 1, Node: 0, IsRoot: true, Iter: 1, Stmt: 0, ResultLine: 64}
	s := &core.Schedule{Tasks: []*core.Task{t0, t1}, Instances: 2}
	s.NumberLines()
	rep, err := verify.Check(verify.Input{Schedule: s, Mesh: m}, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range rep.Violations {
		if d.Kind == verify.KindDeadlock {
			found = true
		}
	}
	if !found {
		t.Fatalf("cycle in wait graph not reported as deadlock: %v", rep.Lines())
	}
}

func TestRedundantArcFlagged(t *testing.T) {
	m := mesh.MustNew(2, 2)
	mk := func(id int, node mesh.NodeID, iter int) *core.Task {
		return &core.Task{ID: id, Node: node, IsRoot: true, Iter: iter, ResultLine: uint64(id * 64)}
	}
	t0 := mk(0, 0, 0)
	t1 := mk(1, 1, 1)
	t1.WaitFor, t1.WaitHops = []int{0}, []int{m.Distance(0, 1)}
	t2 := mk(2, 2, 2)
	t2.WaitFor = []int{1, 0} // 0 -> 2 implied by 0 -> 1 -> 2
	t2.WaitHops = []int{m.Distance(1, 2), m.Distance(0, 2)}
	s := &core.Schedule{Tasks: []*core.Task{t0, t1, t2}, Instances: 3}
	s.NumberLines()
	rep, err := verify.Check(verify.Input{Schedule: s, Mesh: m}, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("valid chain reported as violation: %v", rep.Lines())
	}
	if rep.RedundantArcs != 1 {
		t.Fatalf("RedundantArcs = %d, want 1", rep.RedundantArcs)
	}
	if len(rep.Warnings) == 0 || rep.Warnings[0].Kind != verify.KindRedundantArc {
		t.Fatalf("expected a redundant-arc warning, got %v", rep.Lines())
	}
}

func TestOutOfBoundsWarning(t *testing.T) {
	in, _ := partitionInput(t, "A(8*i+1024) = B(i)", 64, 256)
	rep, err := verify.Check(in, verify.Options{MaxDiagnostics: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("wrapping accesses must not be violations: %v", rep.Lines())
	}
	found := false
	for _, d := range rep.Warnings {
		if d.Kind == verify.KindOutOfBounds && d.Array == "A" {
			found = true
		}
	}
	if !found {
		t.Fatalf("subscript excursion past the extent not flagged: %v", rep.Lines())
	}
}

// TestMaxClosureTasksIsSoftBound replaces the old refusal test: with the
// chain-decomposed closure, the task bound only budgets index memory, so
// even an absurdly small bound must verify the schedule — correctly.
func TestMaxClosureTasksIsSoftBound(t *testing.T) {
	in, _ := partitionInput(t, raceKernel, 64, 1<<10)
	rep, err := verify.CheckWithClosureBound(in, verify.Options{}, 1)
	if err != nil {
		t.Fatalf("schedule refused under a small task bound: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("tight memory bound changed verification results:\n%s\n%v", rep.Summary(), rep.Lines())
	}
	if rep.DepsChecked == 0 {
		t.Fatal("no dependence pairs checked under the tight bound")
	}
}

// TestStaleReuseViolation seeds both stale-hit shapes the write-invalidate
// model must reject: a hit on a copy that predates the latest store, and a
// hit at a node the model never saw create a copy. Both are Violations.
func TestStaleReuseViolation(t *testing.T) {
	m := mesh.MustNew(2, 2)
	const line = uint64(64)
	// The stale claims source node 0 (whose copy predates the store, or which
	// never held one) rather than the writer's node, so the store-to-load
	// forwarding rule does not apply.
	build := func(hitNode mesh.NodeID, from mesh.NodeID) *core.Schedule {
		t0 := &core.Task{ID: 0, Node: 0, Iter: 0,
			Fetches: []core.Fetch{{From: 1, Line: line}}} // real fetch: copy at node 0
		t1 := &core.Task{ID: 1, Node: 1, Iter: 1, IsRoot: true, ResultLine: line,
			WaitFor: []int{0}, WaitHops: []int{m.Distance(0, 1)}} // store invalidates
		t2 := &core.Task{ID: 2, Node: hitNode, Iter: 2,
			Fetches: []core.Fetch{{From: from, Line: line, L1Hit: true}},
			WaitFor: []int{1}, WaitHops: []int{m.Distance(1, hitNode)}}
		s := &core.Schedule{Tasks: []*core.Task{t0, t1, t2}, Instances: 1}
		s.NumberLines()
		return s
	}
	for name, hitNode := range map[string]mesh.NodeID{"killed-copy": 0, "never-created": 2} {
		rep, err := verify.Check(verify.Input{Schedule: build(hitNode, 0), Mesh: m}, verify.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Clean() {
			t.Fatalf("%s: stale L1 hit not a violation: %s", name, rep.Summary())
		}
		found := false
		for _, d := range rep.Violations {
			if d.Kind == verify.KindStaleReuse && d.LaterTask == 2 {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: no stale-reuse violation naming task 2: %v", name, rep.Lines())
		}
		if rep.Counts[verify.KindStaleReuse] == 0 {
			t.Fatalf("%s: per-kind tally missing stale-reuse: %v", name, rep.Counts)
		}
	}
	// A hit sourcing the writer's own node, ordered after the write, is a
	// store-to-load forward: the fresh line rides the handshake and the claim
	// is coherent.
	rep, err := verify.Check(verify.Input{Schedule: build(2, 1), Mesh: m}, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("forwarded hit rejected: %s", rep.Summary())
	}
}

func TestClosureOrderedAndEqual(t *testing.T) {
	m := mesh.MustNew(2, 2)
	// Diamond: 0 -> {1, 2} -> 3, all on distinct nodes so only arcs order.
	mk := func(id int, node mesh.NodeID) *core.Task {
		return &core.Task{ID: id, Node: node, IsRoot: true, Iter: id, ResultLine: uint64(id * 64)}
	}
	ts := []*core.Task{mk(0, 0), mk(1, 1), mk(2, 2), mk(3, 3)}
	ts[1].WaitFor, ts[1].WaitHops = []int{0}, []int{m.Distance(0, 1)}
	ts[2].WaitFor, ts[2].WaitHops = []int{0}, []int{m.Distance(0, 2)}
	ts[3].WaitFor, ts[3].WaitHops = []int{1, 2}, []int{m.Distance(1, 3), m.Distance(2, 3)}
	hb, stuck := verify.BuildClosure(ts, false)
	if hb == nil {
		t.Fatalf("unexpected cycle: %v", stuck)
	}
	for _, want := range []struct {
		a, b int
		ord  bool
	}{{0, 3, true}, {1, 3, true}, {2, 3, true}, {1, 2, false}, {2, 1, false}, {3, 0, false}, {2, 2, true}} {
		if got := hb.Ordered(want.a, want.b); got != want.ord {
			t.Errorf("Ordered(%d,%d) = %v, want %v", want.a, want.b, got, want.ord)
		}
	}
	hb2, _ := verify.BuildClosure(ts, false)
	if !hb.Equal(hb2) {
		t.Error("identical graphs produced unequal closures")
	}
	// Same-node order closes pairs arcs alone leave open.
	ts[1].Node = 2 // now 1 and 2 share a node: 1 -> 2 implicitly
	withNode, _ := verify.BuildClosure(ts, true)
	if withNode == nil || !withNode.Ordered(1, 2) {
		t.Error("same-node program order not reflected in the closure")
	}
}

// TestCheckerGatesCandidates drives the repair gate directly: the clean
// partitioner schedule passes, and a candidate with a dropped flow arc is
// rejected with the verifier's first violation. On a degraded mesh, with
// Input.Faults set, a repaired schedule passes, and each structural
// corruption ValidateScheduleOn rejects there is rejected too: a task on a
// dead tile, a stale WaitHops entry, a line ID naming two lines.
func TestCheckerGatesCandidates(t *testing.T) {
	in, opts := partitionInput(t, "A(i) = B(i)\nC(i) = A(i)+B(i)\nD(i) = A(i)", 64, 1<<10)
	m := opts.Mesh
	// Repair candidates are checked on the degraded mesh, with Input.Faults
	// set: the checker is then the ladder's only structural gate, so it must
	// reject what ValidateScheduleOn rejects there.
	f := mesh.Inject(m, 3, 3, 0, 1, true)
	repaired, _, err := core.RepairVerified(in.Schedule, m, f, core.RepairOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	degradedIn := in
	degradedIn.Faults = f
	pristine, degraded := verify.Checker(in), verify.Checker(degradedIn)
	dead := mesh.InvalidNode
	for n := mesh.NodeID(0); int(n) < m.Nodes(); n++ {
		if !f.NodeUsable(n) {
			dead = n
		}
	}
	probes := []struct {
		name       string
		check      core.RepairChecker
		clean      *core.Schedule
		structural bool
		corrupt    func(t *testing.T, s *core.Schedule)
	}{
		{"every wait arc dropped", pristine, in.Schedule, false, func(t *testing.T, s *core.Schedule) {
			for _, tk := range s.Tasks {
				tk.WaitFor, tk.WaitHops = nil, nil
			}
		}},
		{"task on a dead tile", degraded, repaired, true, func(t *testing.T, s *core.Schedule) {
			if dead == mesh.InvalidNode {
				t.Fatal("fault set kills no node")
			}
			s.Tasks[len(s.Tasks)/2].Node = dead
		}},
		{"stale WaitHops entry", degraded, repaired, true, func(t *testing.T, s *core.Schedule) {
			for _, tk := range s.Tasks {
				if len(tk.WaitHops) > 0 {
					tk.WaitHops[0]++
					return
				}
			}
			t.Fatal("repaired schedule has no wait arc")
		}},
		{"line ID naming two lines", degraded, repaired, true, func(t *testing.T, s *core.Schedule) {
			var first *core.Fetch
			for _, tk := range s.Tasks {
				for fi := range tk.Fetches {
					fe := &tk.Fetches[fi]
					if first == nil {
						first = fe
					} else if fe.Line != first.Line {
						fe.LineID = first.LineID
						return
					}
				}
			}
			t.Fatal("repaired schedule fetches fewer than two lines")
		}},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			if err := p.check(p.clean); err != nil {
				t.Fatalf("clean schedule rejected: %v", err)
			}
			broken := p.clean.Clone()
			p.corrupt(t, broken)
			if p.structural && core.ValidateScheduleOn(broken, m, f) == nil {
				t.Fatal("probe left the schedule structurally valid")
			}
			if err := p.check(broken); err == nil {
				t.Fatal("corrupted schedule accepted")
			}
			if err := p.check(p.clean); err != nil {
				t.Fatalf("checker kept state from the rejected candidate: %v", err)
			}
		})
	}
}

// TestWARReaderOnOutOfRangeNode checks that a structurally broken schedule
// is still analysed for races: a read on a node outside the mesh followed by
// an unordered store to the same line is a WAR violation, next to the
// structural finding about the node.
func TestWARReaderOnOutOfRangeNode(t *testing.T) {
	m := mesh.MustNew(2, 2)
	const line = uint64(64)
	reader := &core.Task{ID: 0, Node: 7, Iter: 0, Fetches: []core.Fetch{{From: 1, Line: line}}}
	writer := &core.Task{ID: 1, Node: 1, Iter: 1, IsRoot: true, ResultLine: line}
	s := &core.Schedule{Tasks: []*core.Task{reader, writer}, Instances: 1}
	s.NumberLines()
	rep, err := verify.Check(verify.Input{Schedule: s, Mesh: m}, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts[verify.KindStructural] == 0 {
		t.Errorf("out-of-range node not reported as structural: %v", rep.Lines())
	}
	found := false
	for _, d := range rep.Violations {
		if d.Kind == verify.KindWAR && d.EarlierTask == 0 && d.LaterTask == 1 && d.EarlierNode == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("WAR against the out-of-range reader not reported: %v", rep.Lines())
	}
}

// TestOffMeshFetchSourceIsStructural checks that a fetch from a node the
// mesh does not have is reported as structural corruption, not passed as
// clean.
func TestOffMeshFetchSourceIsStructural(t *testing.T) {
	m := mesh.MustNew(6, 6)
	task := &core.Task{ID: 0, Node: 0, IsRoot: true, ResultLine: 128, Fetches: []core.Fetch{{From: 999, Line: 64}}}
	s := &core.Schedule{Tasks: []*core.Task{task}, Instances: 1}
	s.NumberLines()
	rep, err := verify.Check(verify.Input{Schedule: s, Mesh: m}, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts[verify.KindStructural] == 0 {
		t.Errorf("off-mesh fetch source not reported as structural: %v", rep.Lines())
	}
}

package core

import (
	"reflect"
	"testing"

	"dmacp/internal/ir"
	"dmacp/internal/predictor"
)

// smallNest builds a two-statement nest sharing C(i) (the Figure 11
// multi-statement scenario) over a modest iteration space.
func smallNest(t *testing.T, iters int, srcs ...string) (*ir.Program, *ir.Nest, *ir.Store) {
	t.Helper()
	if len(srcs) == 0 {
		srcs = []string{
			"A(i) = B(i)+C(i)+D(i)+E(i)",
			"X(i) = Y(i)+C(i)",
		}
	}
	stmts, err := ir.ParseStatements(joinLines(srcs))
	if err != nil {
		t.Fatal(err)
	}
	nest := &ir.Nest{
		Name:  "test",
		Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: iters, Step: 1}},
		Body:  stmts,
	}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, 4096, 8)
	store := ir.NewStore(prog)
	store.FillRandom(prog, 1)
	return prog, nest, store
}

func joinLines(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s + "\n"
	}
	return out
}

func TestPartitionBasic(t *testing.T) {
	prog, nest, store := smallNest(t, 64)
	res, err := Partition(prog, nest, store, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Instances != 128 {
		t.Errorf("instances = %d, want 128", res.Stats.Instances)
	}
	if res.WindowSize < 1 || res.WindowSize > 8 {
		t.Errorf("window = %d", res.WindowSize)
	}
	if len(res.MovementBySize) != 8 {
		t.Errorf("window trials = %d, want 8", len(res.MovementBySize))
	}
	// Chosen window minimizes movement.
	for w, mv := range res.MovementBySize {
		if mv < res.MovementBySize[res.WindowSize] {
			t.Errorf("window %d has movement %d < chosen %d's %d",
				w, mv, res.WindowSize, res.MovementBySize[res.WindowSize])
		}
	}
	if res.Stats.TotalMovement <= 0 {
		t.Error("no movement recorded")
	}
	if res.Stats.AvgParallelism < 1 {
		t.Errorf("avg parallelism = %v", res.Stats.AvgParallelism)
	}
	if len(res.Schedule.Tasks) < res.Stats.Instances {
		t.Errorf("only %d tasks for %d instances", len(res.Schedule.Tasks), res.Stats.Instances)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	run := func() *Result {
		prog, nest, store := smallNest(t, 32)
		res, err := Partition(prog, nest, store, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.WindowSize != b.WindowSize || a.Stats.TotalMovement != b.Stats.TotalMovement {
		t.Errorf("non-deterministic: %d/%d vs %d/%d",
			a.WindowSize, a.Stats.TotalMovement, b.WindowSize, b.Stats.TotalMovement)
	}
	if len(a.Schedule.Tasks) != len(b.Schedule.Tasks) {
		t.Errorf("task counts differ: %d vs %d", len(a.Schedule.Tasks), len(b.Schedule.Tasks))
	}
	for i := range a.Schedule.Tasks {
		ta, tb := a.Schedule.Tasks[i], b.Schedule.Tasks[i]
		if ta.Node != tb.Node || ta.Ops != tb.Ops || len(ta.WaitFor) != len(tb.WaitFor) {
			t.Fatalf("task %d differs: %+v vs %+v", i, ta, tb)
		}
	}
}

// TestPartitionDeterministicAcrossJobs asserts the parallel window sweep is
// invisible: the result at -j 8 is identical to the serial sweep, task by
// task, because each pass is independent and passes merge in window order.
// The nest spans several ranges of the shared-plan build, so -j 1 and -j 8
// also build the plans in different orders.
func TestPartitionDeterministicAcrossJobs(t *testing.T) {
	const iters = 3 * planRange / 2 // two statements: 3 plan ranges
	run := func(jobs int) *Result {
		prog, nest, store := smallNest(t, iters)
		opts := testOpts()
		opts.Jobs = jobs
		res, err := Partition(prog, nest, store, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if a.Stats.Instances <= 2*planRange {
		t.Fatalf("%d instances fill fewer than 3 plan ranges of %d", a.Stats.Instances, planRange)
	}
	if a.WindowSize != b.WindowSize || a.Stats != b.Stats {
		t.Errorf("jobs changed the result: window %d/%d, stats %+v vs %+v",
			a.WindowSize, b.WindowSize, a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(a.MovementBySize, b.MovementBySize) || !reflect.DeepEqual(a.L1HitBySize, b.L1HitBySize) {
		t.Errorf("jobs changed the trial scores: %v / %v vs %v / %v",
			a.MovementBySize, a.L1HitBySize, b.MovementBySize, b.L1HitBySize)
	}
	if len(a.Schedule.Tasks) != len(b.Schedule.Tasks) {
		t.Fatalf("task counts differ: %d vs %d", len(a.Schedule.Tasks), len(b.Schedule.Tasks))
	}
	if a.Schedule.SyncsBefore != b.Schedule.SyncsBefore || a.Schedule.SyncsAfter != b.Schedule.SyncsAfter {
		t.Errorf("jobs changed sync counts: %d->%d vs %d->%d", a.Schedule.SyncsBefore,
			a.Schedule.SyncsAfter, b.Schedule.SyncsBefore, b.Schedule.SyncsAfter)
	}
	// Sync reduction runs on the selected pass after the fan-out, so compare
	// whole tasks — surviving arcs, fetches and flags — not just counts.
	for i := range a.Schedule.Tasks {
		if ta, tb := a.Schedule.Tasks[i], b.Schedule.Tasks[i]; !reflect.DeepEqual(ta, tb) {
			t.Fatalf("task %d differs: %+v vs %+v", i, *ta, *tb)
		}
	}
	if !reflect.DeepEqual(a.OffloadMix, b.OffloadMix) {
		t.Errorf("jobs changed the offload mix: %v vs %v", a.OffloadMix, b.OffloadMix)
	}
}

func TestPartitionTaskDAGIsTopological(t *testing.T) {
	prog, nest, store := smallNest(t, 48)
	res, err := Partition(prog, nest, store, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range res.Schedule.Tasks {
		if task.ID >= len(res.Schedule.Tasks) {
			t.Fatalf("task ID %d out of range", task.ID)
		}
		if len(task.WaitFor) != len(task.WaitHops) {
			t.Fatalf("task %d: WaitFor/WaitHops length mismatch", task.ID)
		}
		for _, p := range task.WaitFor {
			if p >= task.ID {
				t.Fatalf("task %d waits on later/equal task %d", task.ID, p)
			}
		}
		if task.Node < 0 || int(task.Node) >= testOpts().Mesh.Nodes() {
			t.Fatalf("task %d placed on invalid node %d", task.ID, task.Node)
		}
	}
}

func TestPartitionFixedWindow(t *testing.T) {
	prog, nest, store := smallNest(t, 32)
	o := testOpts()
	o.FixedWindow = 3
	res, err := Partition(prog, nest, store, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowSize != 3 {
		t.Errorf("window = %d, want fixed 3", res.WindowSize)
	}
	if len(res.MovementBySize) != 1 {
		t.Errorf("trials = %d, want 1", len(res.MovementBySize))
	}
}

func TestPartitionReuseAwareBeatsAgnostic(t *testing.T) {
	// The two statements share C(i); reuse-aware scheduling must not move
	// more data than reuse-agnostic.
	prog, nest, store := smallNest(t, 64)
	oAware := testOpts()
	res1, err := Partition(prog, nest, store, oAware)
	if err != nil {
		t.Fatal(err)
	}
	prog2, nest2, store2 := smallNest(t, 64)
	oAgn := testOpts()
	oAgn.ReuseAware = false
	res2, err := Partition(prog2, nest2, store2, oAgn)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.TotalMovement > res2.Stats.TotalMovement {
		t.Errorf("reuse-aware movement %d > agnostic %d",
			res1.Stats.TotalMovement, res2.Stats.TotalMovement)
	}
	if res1.Stats.ReuseHits == 0 {
		t.Error("no reuse hits despite shared C(i)")
	}
}

func TestPartitionIndirectUsesInspector(t *testing.T) {
	// S1 writes X(i); S2 reads X(Y(i)): a may-dependence the compiler cannot
	// disprove, so the inspector must run (Section 4.5).
	prog, nest, store := smallNest(t, 32,
		"X(i) = B(i)+C(i)",
		"Z(i) = X(Y(i))+B(i)",
	)
	res, err := Partition(prog, nest, store, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedInspector {
		t.Error("inspector not used despite indirect access")
	}
	if res.AnalyzableFraction >= 1 {
		t.Errorf("analyzable fraction = %v, want < 1", res.AnalyzableFraction)
	}
}

func TestPartitionAffineDoesNotUseInspector(t *testing.T) {
	prog, nest, store := smallNest(t, 16)
	res, err := Partition(prog, nest, store, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedInspector {
		t.Error("inspector used for fully affine body")
	}
	if res.AnalyzableFraction != 1 {
		t.Errorf("analyzable fraction = %v, want 1", res.AnalyzableFraction)
	}
}

func TestPartitionWithPredictorReportsAccuracy(t *testing.T) {
	prog, nest, store := smallNest(t, 64)
	o := testOpts()
	o.Predictor = predictor.MustNew(predictor.Config{
		L2TotalBytes: o.L2BankBytes * uint64(o.Mesh.Nodes()),
		LineBytes:    o.Layout.LineBytes,
		Ways:         o.L2Ways,
		SampleMod:    4,
	})
	res, err := Partition(prog, nest, store, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictorAccuracy <= 0 || res.PredictorAccuracy > 1 {
		t.Errorf("predictor accuracy = %v", res.PredictorAccuracy)
	}
	// The shared option's predictor must stay untouched by the sweep (the
	// location pass trains a fresh clone).
	if o.Predictor.Observations() != 0 {
		t.Errorf("shared predictor polluted: %d observations", o.Predictor.Observations())
	}
}

// TestIdealAnalysisMode: oracle data-location knowledge bypasses the
// predictor even when one is configured, so none of its predictions are
// scored.
func TestIdealAnalysisMode(t *testing.T) {
	prog, nest, store := smallNest(t, 64)
	o := testOpts()
	o.IdealAnalysis = true
	o.Predictor = predictor.MustNew(predictor.Config{
		L2TotalBytes: o.L2BankBytes * uint64(o.Mesh.Nodes()),
		LineBytes:    o.Layout.LineBytes,
		Ways:         o.L2Ways,
		SampleMod:    4,
	})
	res, err := Partition(prog, nest, store, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictorAccuracy != 0 {
		t.Errorf("ideal analysis should bypass the predictor, accuracy = %v", res.PredictorAccuracy)
	}
}

func TestPartitionSyncReduction(t *testing.T) {
	prog, nest, store := smallNest(t, 64)
	res, err := Partition(prog, nest, store, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.SyncsAfter > res.Schedule.SyncsBefore {
		t.Errorf("reduction increased syncs: %d -> %d",
			res.Schedule.SyncsBefore, res.Schedule.SyncsAfter)
	}
	if res.Stats.SyncsPerStatement < 0 {
		t.Errorf("syncs per statement = %v", res.Stats.SyncsPerStatement)
	}
}

func TestPartitionEmptyBodyRejected(t *testing.T) {
	prog := ir.NewProgram()
	nest := &ir.Nest{Name: "empty", Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: 4, Step: 1}}}
	if _, err := Partition(prog, nest, nil, testOpts()); err == nil {
		t.Error("empty body accepted")
	}
}

func TestPartitionOffloadMixPopulated(t *testing.T) {
	prog, nest, store := smallNest(t, 64,
		"A(i) = B(i)*C(i)+D(i)/E(i)",
		"X(i) = Y(i)+C(i)",
	)
	res, err := Partition(prog, nest, store, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.OffloadMix {
		total += n
	}
	if total == 0 {
		t.Error("no offloaded ops recorded")
	}
}

func TestOptionsValidate(t *testing.T) {
	o := DefaultOptions()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.Mesh = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil mesh accepted")
	}
	bad = DefaultOptions()
	bad.DivWeight = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero DivWeight accepted")
	}
	bad = DefaultOptions()
	bad.MaxWindow, bad.FixedWindow = 0, 0
	if err := bad.Validate(); err == nil {
		t.Error("no window sizes accepted")
	}
}

func TestPartitionScheduleValidates(t *testing.T) {
	prog, nest, store := smallNest(t, 48)
	o := testOpts()
	res, err := Partition(prog, nest, store, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateScheduleOn(res.Schedule, o.Mesh, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartition2DNest(t *testing.T) {
	// A two-deep nest (blocked update): both loop variables drive the
	// subscripts, exercising multi-loop iteration enumeration end to end.
	stmts, err := ir.ParseStatements("A(64*i+8*j) = A(64*i+8*j) - L(8*i)*U(8*j)")
	if err != nil {
		t.Fatal(err)
	}
	nest := &ir.Nest{
		Name: "2d",
		Loops: []ir.Loop{
			{Var: "i", Lower: 0, Upper: 12, Step: 1},
			{Var: "j", Lower: 0, Upper: 12, Step: 1},
		},
		Body: stmts,
	}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, 1<<14, 8)
	store := ir.NewStore(prog)
	o := testOpts()
	res, err := Partition(prog, nest, store, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Instances != 144 {
		t.Errorf("instances = %d, want 144", res.Stats.Instances)
	}
	if err := ValidateScheduleOn(res.Schedule, o.Mesh, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateScheduleCatchesCorruption(t *testing.T) {
	prog, nest, store := smallNest(t, 8)
	o := testOpts()
	res, err := Partition(prog, nest, store, o)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a wait arc's hops.
	var victim *Task
	for _, task := range res.Schedule.Tasks {
		if len(task.WaitFor) > 0 {
			victim = task
			break
		}
	}
	if victim == nil {
		t.Skip("no arcs to corrupt")
	}
	victim.WaitHops[0] += 3
	if err := ValidateScheduleOn(res.Schedule, o.Mesh, nil); err == nil {
		t.Error("corrupted hops not detected")
	}
	victim.WaitHops[0] -= 3
	victim.WaitFor[0] = victim.ID // self wait
	if err := ValidateScheduleOn(res.Schedule, o.Mesh, nil); err == nil {
		t.Error("self wait not detected")
	}
}

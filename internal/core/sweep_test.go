package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/exp"
	"dmacp/internal/ir"
	"dmacp/internal/workloads"
)

// TestSweepWinnerMatchesFixedWindow pins the split inside the window sweep:
// every trial reads one location trace and only makes decisions, and only
// the selected window is re-run to emit and sync-reduce its schedule. So
// every trial's score must equal a fixed-window run's at that window, and
// the adaptive result must equal a single pass at the window it selected,
// field for field. A sweep's trials read shared reuse-free plans and a
// fixed-window run builds every plan inline, so this is also a
// differential between the two. It runs every workload with the evaluation
// predictor, plus seeded random kernels.
func TestSweepWinnerMatchesFixedWindow(t *testing.T) {
	opts := exp.NewRunner(workloads.TestScale()).Opts
	forEachSweepNest(t, func(name string, prog *ir.Program, nest *ir.Nest, store *ir.Store) {
		checkSweep(t, name, prog, nest, store, opts)
	})
}

// TestSharedPlansMatchFreshBuild pins the reuse-free plans a sweep builds
// once per nest and its trials share: on the same nests, every shared plan
// and analysis must equal a fresh single-statement split with empty reuse
// lists in each field a pass reads, and the trace's line IDs must be a
// bijection onto [0, nLines).
func TestSharedPlansMatchFreshBuild(t *testing.T) {
	opts := exp.NewRunner(workloads.TestScale()).Opts
	forEachSweepNest(t, func(name string, prog *ir.Program, nest *ir.Nest, store *ir.Store) {
		if err := core.CheckSharedPlans(prog, nest, store, opts); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	})
}

// forEachSweepNest calls fn on every nest of every workload at TestScale,
// then on seeded random kernels whose indirect references and accumulators
// stress the inspector path and the flow and WAR arcs.
func forEachSweepNest(t *testing.T, fn func(name string, prog *ir.Program, nest *ir.Nest, store *ir.Store)) {
	t.Helper()
	sc := workloads.TestScale()
	for _, name := range workloads.Names() {
		app, err := workloads.Build(name, sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, nest := range app.Nests {
			fn(nest.Name, app.Prog, nest, app.Store)
		}
	}
	rng := rand.New(rand.NewSource(19))
	for k := 0; k < 20; k++ {
		src := exp.RandomProgram(rng)
		body, err := ir.ParseStatements(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		nest := &ir.Nest{Name: src, Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: 32, Step: 1}}, Body: body}
		prog := ir.NewProgram()
		prog.DeclareFromNest(nest, 1<<9, 8)
		prog.Nests = append(prog.Nests, nest)
		store := ir.NewStore(prog)
		store.FillRandom(prog, int64(k))
		fn(src, prog, nest, store)
	}
}

// checkSweep compares the adaptive run over nest with a fixed-window run at
// every window: trial scores at each, and the whole result at the selected
// one.
func checkSweep(t *testing.T, name string, prog *ir.Program, nest *ir.Nest, store *ir.Store, opts core.Options) {
	t.Helper()
	res, err := core.Partition(prog, nest, store, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(res.MovementBySize) != core.MaxWindow {
		t.Errorf("%s: %d trials, want %d", name, len(res.MovementBySize), core.MaxWindow)
	}
	for w := 1; w <= core.MaxWindow; w++ {
		fixed := opts
		fixed.FixedWindow = w
		ref, err := core.Partition(prog, nest, store, fixed)
		if err != nil {
			t.Fatalf("%s (window %d): %v", name, w, err)
		}
		if res.MovementBySize[w] != ref.MovementBySize[w] || res.L1HitBySize[w] != ref.L1HitBySize[w] {
			t.Errorf("%s: window %d trial scores movement %d, L1 hit %v; fixed run %d, %v", name, w,
				res.MovementBySize[w], res.L1HitBySize[w], ref.MovementBySize[w], ref.L1HitBySize[w])
		}
		if w == res.WindowSize {
			compareResults(t, name, res, ref)
		}
	}
}

// compareResults reports every field in which the adaptive result got
// differs from the fixed-window result want.
func compareResults(t *testing.T, name string, got, want *core.Result) {
	t.Helper()
	if w := got.WindowSize; want.WindowSize != w {
		t.Errorf("%s: window %d, fixed run reports %d", name, w, want.WindowSize)
	}
	gs, ws := got.Schedule, want.Schedule
	if gs.SyncsBefore != ws.SyncsBefore || gs.SyncsAfter != ws.SyncsAfter || gs.Instances != ws.Instances {
		t.Errorf("%s: syncs %d->%d over %d instances, fixed %d->%d over %d", name,
			gs.SyncsBefore, gs.SyncsAfter, gs.Instances, ws.SyncsBefore, ws.SyncsAfter, ws.Instances)
	}
	if len(gs.Tasks) != len(ws.Tasks) {
		t.Errorf("%s: %d tasks, fixed %d", name, len(gs.Tasks), len(ws.Tasks))
	} else {
		for i := range gs.Tasks {
			if !reflect.DeepEqual(gs.Tasks[i], ws.Tasks[i]) {
				t.Errorf("%s: task %d differs:\n  sweep %+v\n  fixed %+v", name, i, *gs.Tasks[i], *ws.Tasks[i])
				break
			}
		}
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: stats differ:\n  sweep %+v\n  fixed %+v", name, got.Stats, want.Stats)
	}
	if got.AnalyzableFraction != want.AnalyzableFraction || got.PredictorAccuracy != want.PredictorAccuracy {
		t.Errorf("%s: analyzable %v / accuracy %v, fixed %v / %v", name,
			got.AnalyzableFraction, got.PredictorAccuracy, want.AnalyzableFraction, want.PredictorAccuracy)
	}
	if !reflect.DeepEqual(got.Translations, want.Translations) {
		t.Errorf("%s: translations differ", name)
	}
	if !reflect.DeepEqual(got.LineLabels, want.LineLabels) {
		t.Errorf("%s: line labels differ", name)
	}
	if !reflect.DeepEqual(got.OffloadMix, want.OffloadMix) {
		t.Errorf("%s: offload mix %v, fixed %v", name, got.OffloadMix, want.OffloadMix)
	}
}

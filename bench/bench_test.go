package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the tests hold the command to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyRun runs one workload in-process on its small inputs and returns the
// report and its printed output.
func tinyRun(t *testing.T, workload string, jobs int, traced bool, traceOut string) (*report, string) {
	t.Helper()
	rep, err := run(config{
		workload: workload,
		seed:     1,
		seconds:  0.05,
		trace:    traced,
		traceOut: traceOut,
		jobs:     jobs,
		tiny:     true,
		log:      io.Discard,
		start:    time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rep.write(&b, traceOut); err != nil {
		t.Fatal(err)
	}
	return rep, b.String()
}

func value(t *testing.T, rep *report, name string) float64 {
	t.Helper()
	for _, ms := range [][]metric{rep.endToEnd, rep.extra, rep.perLayer} {
		for _, m := range ms {
			if m.name == name {
				return m.value
			}
		}
	}
	t.Fatalf("no metric %s", name)
	return 0
}

// checkPrinted holds the output to the spec: every metric on exactly one
// "name value unit" line, and the last line a JSON result holding exactly
// the spec's metrics with their units.
func checkPrinted(t *testing.T, out string, want []specMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	seen := map[string]int{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) == 3 {
			seen[f[0]+" "+f[2]]++
		}
	}
	for _, m := range want {
		if n := seen[m.Name+" "+m.Unit]; n != 1 {
			t.Errorf("%s (%s) printed %d times", m.Name, m.Unit, n)
		}
	}
	var res struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    int   `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if res.Correct == nil || !*res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result says correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result holds %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("result metric %s = %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
}

// checkCoverage reads a trace file and requires every op's child spans to
// cover at least 95% of the op.
func checkCoverage(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Provenance.CPU == "" || tf.Provenance.Go == "" || tf.Provenance.Scale == "" {
		t.Errorf("trace provenance incomplete: %+v", tf.Provenance)
	}
	children := make([]int64, len(tf.Spans))
	for _, s := range tf.Spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	ops := 0
	for i, s := range tf.Spans {
		if s.Name != "op" || s.Parent >= 0 {
			continue
		}
		ops++
		if dur := s.End - s.Start; float64(children[i]) < 0.95*float64(dur) {
			t.Errorf("op %d: child spans cover %d of %d ns", s.Op, children[i], dur)
		}
	}
	if ops == 0 {
		t.Error("trace holds no op spans")
	}
}

func TestCatalogMatchesSpec(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(catalog) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(s.Workloads), len(catalog))
	}
	for i, w := range s.Workloads {
		if w.Name != catalog[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the command %s", i, w.Name, catalog[i].name)
		}
	}
}

// TestWorkloads runs every workload: untraced twice at two workers and once
// at one, then traced. Outputs must be identical across the untraced runs,
// and every op must succeed.
func TestWorkloads(t *testing.T) {
	s := readSpec(t)
	for _, w := range catalog {
		t.Run(w.name, func(t *testing.T) {
			a, out := tinyRun(t, w.name, 2, false, "")
			checkPrinted(t, out, s.EndToEnd)
			b, _ := tinyRun(t, w.name, 2, false, "")
			c, _ := tinyRun(t, w.name, 1, false, "")
			for _, name := range []string{"movement_bxh", "sim_cycles", "fail_frac"} {
				va, vb, vc := value(t, a, name), value(t, b, name), value(t, c, name)
				if va != vb || va != vc {
					t.Errorf("%s differs: %v and %v at two workers, %v at one", name, va, vb, vc)
				}
			}
			if f := value(t, a, "fail_frac"); f != 0 {
				t.Errorf("fail_frac = %v", f)
			}

			path := filepath.Join(t.TempDir(), "trace.json")
			d, out := tinyRun(t, w.name, 2, true, path)
			checkPrinted(t, out, s.PerLayer)
			checkCoverage(t, path)
			if cover := value(t, d, "trace.min_child_cover_pct"); cover < 95 {
				t.Errorf("trace.min_child_cover_pct = %v", cover)
			}
		})
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "kernel-stream", "--seed", "7", "--seconds", "3", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workload != "kernel-stream" || cfg.seed != 7 || cfg.seconds != 3 || !cfg.trace {
		t.Errorf("parsed %+v", cfg)
	}
	for _, args := range [][]string{
		{"--trace", "2"},
		{"--seconds", "0"},
		{"--workload", "x", "extra"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	if _, err := run(config{workload: "no-such-workload"}); err == nil {
		t.Error("run accepted an unknown workload")
	}
}

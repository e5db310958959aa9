// Command bench is the repository's benchmark. One process runs one
// workload as a closed loop with a single client: it sets the workload up,
// warms up, then runs ops back to back for a fixed wall time, each op
// starting when the previous one returns, and checks every op's output. The
// only parallelism is the partitioner's own window sweep, on GOMAXPROCS
// workers.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh --workload suite-compile --seed 1 --seconds 15 --trace 0
//
// It prints a provenance line, then every metric as "name value unit", and
// last one JSON object: the verdict, the op counts, and the end-to-end
// metrics, or with --trace 1 the per-layer metrics. BENCHMARK.json at the
// repository root lists the workloads and metrics; README.md explains them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// traceOut, when set, names the file the traced run's spans go to.
	traceOut string
	jobs     int
	// tiny swaps in the workloads' small inputs and sets up only the minimum
	// number of times, for the package's tests.
	tiny  bool
	log   io.Writer
	start time.Time
}

func main() {
	start := time.Now()
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg.start = start
	rep, err := run(cfg)
	if err == nil {
		err = rep.write(os.Stdout, cfg.traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var names []string
	for _, w := range catalog {
		names = append(names, w.name)
	}
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 15, "wall time the timed loop runs")
	trace := fs.Int("trace", 0, "1 runs half the time traced and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("-seconds must be positive")
	}
	return config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		traceOut: *traceOut,
		jobs:     runtime.GOMAXPROCS(0),
		log:      os.Stderr,
	}, nil
}

// run measures the configured workload.
func run(cfg config) (*report, error) {
	for _, w := range catalog {
		if w.name == cfg.workload {
			return measure(cfg, w)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is one run's result.
type report struct {
	prov              provenance
	correct           bool
	attempted, failed int
	trace             bool
	// endToEnd is the result of an untraced run; perLayer of a traced one.
	// extra holds the untraced run's lines that are not end-to-end metrics.
	endToEnd, perLayer, extra []metric
	spans                     []span
}

// provenance says where and how a record was made.
type provenance struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Jobs       int     `json:"jobs"`
	Go         string  `json:"go"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Ops        int     `json:"ops"`
	Scale      string  `json:"scale"`
}

func newProvenance(cfg config, fx *fixture, ops int) provenance {
	return provenance{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Jobs:       cfg.jobs,
		Go:         runtime.Version(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.trace,
		Ops:        ops,
		Scale:      fx.scale,
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or the architecture
// where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// write prints the report: the provenance line, one "name value unit" line
// per metric, and the JSON result line. A traced run also writes its spans
// to traceOut when that is set.
func (r *report) write(w io.Writer, traceOut string) error {
	prov, err := json.Marshal(r.prov)
	if err != nil {
		return err
	}
	text, result := slices.Concat(r.endToEnd, r.extra), r.endToEnd
	if r.trace {
		text, result = r.perLayer, r.perLayer
	}
	var b strings.Builder
	fmt.Fprintf(&b, "provenance %s\n", prov)
	for _, m := range text {
		fmt.Fprintf(&b, "%s %s %s\n", m.name, formatValue(m.value), m.unit)
	}
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct, r.attempted, r.failed)
	for i, m := range result {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, formatValue(m.value), m.unit)
	}
	b.WriteString("}}\n")
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	if !r.trace || traceOut == "" {
		return nil
	}
	out, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{r.prov, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(traceOut, out, 0o644)
}

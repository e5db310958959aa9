package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// A run sets its workload up at least minSetupReps times, and more while
// the set-ups have taken under setupBudget, up to maxSetupReps; setup_s is
// the median, so one slow set-up does not move it.
const (
	minSetupReps = 3
	maxSetupReps = 100
	setupBudget  = time.Second
)

// state checks and accumulates the outcomes of the ops of one run.
type state struct {
	fx       *fixture
	log      io.Writer
	outcomes []*outcome
	tried    []bool
	// attempted and failed count every op run outside set-up, timed or not.
	attempted, failed int
}

// record files input i's outcome. An op error is a failed op. An outcome
// that differs from an earlier op on the same input is a fatal error: the
// system is deterministic, so the benchmark would be measuring a bug.
func (s *state) record(i int, out outcome, err error) error {
	s.attempted++
	s.tried[i] = true
	if err != nil {
		s.failed++
		if s.failed <= 5 {
			fmt.Fprintf(s.log, "bench: %s: %v\n", s.fx.inputs[i], err)
		}
		return nil
	}
	if prev := s.outcomes[i]; prev == nil {
		s.outcomes[i] = &out
	} else if *prev != out {
		return fmt.Errorf("%s: two ops on this input disagree:\n  %+v\n  %+v", s.fx.inputs[i], *prev, out)
	}
	return nil
}

// runOp runs input i's op and its check. The returned latency covers the op
// alone.
func runOp(fx *fixture, tr *tracer, i int) (result, outcome, time.Duration, error) {
	t0 := time.Now()
	id := tr.begin("op")
	res, err := fx.op(tr, i)
	tr.end(id)
	lat := time.Since(t0)
	if err != nil {
		return nil, outcome{}, lat, err
	}
	id = tr.begin("check")
	out, err := res.check(tr)
	tr.end(id)
	return res, out, lat, err
}

// loop is the closed loop: ops back to back, cycling through the inputs from
// the first, until d has passed. It returns each op's latency and the
// loop's wall time.
func (s *state) loop(tr *tracer, d time.Duration, probe bool) ([]time.Duration, time.Duration, error) {
	var lats []time.Duration
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		i := n % len(s.fx.inputs)
		tr.op = n
		res, out, lat, err := runOp(s.fx, tr, i)
		lats = append(lats, lat)
		if ferr := s.record(i, out, err); ferr != nil {
			return nil, 0, ferr
		}
		if err == nil && probe {
			id := tr.begin("probe")
			err := res.probe(tr)
			tr.end(id)
			if err != nil {
				return nil, 0, fmt.Errorf("%s: probe: %w", s.fx.inputs[i], err)
			}
		}
	}
	tr.op = -1
	return lats, time.Since(start), nil
}

// cover runs, untimed and untraced, every input the loops did not reach, so
// the totals cover the whole input set whatever the machine's speed.
func (s *state) cover(tr *tracer) error {
	tr.on = false
	for i := range s.fx.inputs {
		if s.tried[i] {
			continue
		}
		_, out, _, err := runOp(s.fx, tr, i)
		if ferr := s.record(i, out, err); ferr != nil {
			return ferr
		}
	}
	return nil
}

// setUp sets the workload up repeatedly, each time ending with one untimed
// warm-up op on the first input, and keeps the last fixture. It returns
// each set-up's duration and the warm-up's outcome.
func setUp(cfg config, w workload, p params, tr *tracer) (*fixture, []float64, outcome, error) {
	var fx *fixture
	var warm outcome
	var secs []float64
	var spent time.Duration
	budget := setupBudget
	if cfg.tiny {
		budget = 0
	}
	for len(secs) < minSetupReps || (spent < budget && len(secs) < maxSetupReps) {
		fx = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		fx, err = w.setup(cfg, p, tr)
		if err != nil {
			return nil, nil, outcome{}, fmt.Errorf("set-up: %w", err)
		}
		id := tr.begin("setup.warmup")
		_, out, _, err := runOp(fx, tr, 0)
		tr.end(id)
		d := time.Since(t0)
		spent += d
		secs = append(secs, d.Seconds())
		if err != nil {
			return nil, nil, outcome{}, fmt.Errorf("warm-up op on %s: %w", fx.inputs[0], err)
		}
		if len(secs) > 1 && out != warm {
			return nil, nil, outcome{}, fmt.Errorf("warm-up op on %s differs between set-ups:\n  %+v\n  %+v", fx.inputs[0], warm, out)
		}
		warm = out
	}
	return fx, secs, warm, nil
}

// measure runs one workload: set-up, then the timed closed loop. A traced
// run gives that loop half the time and spends the rest in two traced
// loops, the second with probes.
func measure(cfg config, w workload) (*report, error) {
	p := w.full
	if cfg.tiny {
		p = w.tiny
	}
	tr := newTracer(cfg.start)
	tr.on = cfg.trace
	fx, setupSecs, warm, err := setUp(cfg, w, p, tr)
	if err != nil {
		return nil, err
	}
	setupSpans := tr.spans
	st := &state{fx: fx, log: cfg.log, outcomes: make([]*outcome, len(fx.inputs)), tried: make([]bool, len(fx.inputs))}
	st.outcomes[0] = &warm

	phase := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		phase /= 2
	}
	tr.on = false
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	lats, wall, err := st.loop(tr, phase, false)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	var retained runtime.MemStats
	runtime.ReadMemStats(&retained)

	rep := &report{
		prov:  newProvenance(cfg, fx, len(lats)),
		trace: cfg.trace,
	}
	var sum, probed spanSummary
	var tracedLats []time.Duration
	if cfg.trace {
		// Spans alone, then spans and probes, for a quarter of the time each:
		// the probes' garbage would otherwise slow the ops the shares come
		// from.
		tr.on = true
		from := len(tr.spans)
		if tracedLats, _, err = st.loop(tr, phase/2, false); err != nil {
			return nil, err
		}
		sum = summarize(tr.spans, from)
		from = len(tr.spans)
		if _, _, err = st.loop(tr, phase/2, true); err != nil {
			return nil, err
		}
		probed = summarize(tr.spans, from)
		rep.spans = tr.spans
	}
	if err := st.cover(tr); err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = st.attempted, st.failed
	rep.correct = st.failed == 0

	var total totals
	for _, o := range st.outcomes {
		if o != nil {
			total.add(o)
		}
	}
	ops := float64(len(lats))
	rep.endToEnd = []metric{
		{"setup_s", median(setupSecs), "s"},
		{"ops_per_s", ops / wall.Seconds(), "ops/s"},
		{"op_p50_ms", percentileMs(lats, 0.50), "ms"},
		{"op_p95_ms", percentileMs(lats, 0.95), "ms"},
		{"movement_bxh", float64(total.movement), "line-hops"},
		{"sim_cycles", total.cycles, "cycles"},
		{"heap_live_mb", float64(retained.HeapAlloc) / mb, "MB"},
	}
	runtimeMetrics := []metric{
		{"runtime.peak_rss_mb", peakRSSMB(), "MB"},
		{"runtime.gc_cycles", float64(ms1.NumGC - ms0.NumGC), "count"},
		{"runtime.gc_pause_pct", 100 * ratio(float64(ms1.PauseTotalNs-ms0.PauseTotalNs), float64(wall)), "%"},
		{"runtime.alloc_mb_per_op", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/mb, ops), "MB/op"},
	}
	rep.extra = append([]metric{{"fail_frac", ratio(float64(st.failed), float64(st.attempted)), "ratio"}}, runtimeMetrics...)
	if cfg.trace {
		rep.perLayer = perLayer(sum, probed, setupSpans, total, runtimeMetrics, lats, tracedLats, len(tr.spans))
	}
	return rep, nil
}

const mb = 1 << 20

// totals sums outcomes over the input set.
type totals struct {
	outcome
	inputs, fulls, mincosts int
}

func (o *totals) add(x *outcome) {
	o.inputs++
	if x.full {
		o.fulls++
	}
	if x.mincost {
		o.mincosts++
	}
	o.movement += x.movement
	o.cycles += x.cycles
	o.instances += x.instances
	o.tasks += x.tasks
	o.syncsBefore += x.syncsBefore
	o.syncsAfter += x.syncsAfter
	o.windowTrials += x.windowTrials
	o.mergedStmts += x.mergedStmts
	o.depsChecked += x.depsChecked
	o.transfers += x.transfers
	o.hops += x.hops
	o.l1Hits += x.l1Hits
	o.l1Refs += x.l1Refs
	o.syncStall += x.syncStall
	o.migrated += x.migrated
	o.residual += x.residual
}

// layers are the span names of the system's layers, in pipeline order.
var layers = []string{
	"ir.parse", "ir.build", "core.Partition", "baseline.Place",
	"verify.Check", "sim.Run", "core.RepairOnline",
}

// perLayer derives the traced run's metrics. Shares of time are taken over
// the traced loop's op and check spans, the work the untraced loop also
// does, and probe costs over the probe loop's; counts are totals over the
// whole input set, so they repeat exactly.
func perLayer(sum, probed spanSummary, setupSpans []span, total totals, runtimeMetrics []metric, plain, traced []time.Duration, nspans int) []metric {
	loopTime := float64(cost(sum.roots, "op").total + cost(sum.roots, "check").total)
	ops := float64(sum.ops)
	var ms []metric

	setup := summarize(setupSpans, 0)
	var setupTime float64
	for _, s := range setupSpans {
		if s.Parent < 0 {
			setupTime += float64(s.End - s.Start)
		}
	}
	for _, phase := range []string{"inputs", "mesh", "precompute", "warmup"} {
		ms = append(ms, metric{"setup." + phase + "_pct", 100 * ratio(float64(cost(setup.roots, "setup."+phase).total), setupTime), "%"})
	}
	meshSetup := cost(setup.roots, "setup.mesh")
	ms = append(ms, metric{"setup.mesh_alloc_mb", ratio(float64(meshSetup.alloc)/mb, float64(meshSetup.calls)), "MB"})

	for _, l := range layers {
		c := cost(sum.layers, l)
		ms = append(ms,
			metric{l + ".calls_per_op", ratio(float64(c.calls), ops), "1/op"},
			metric{l + ".self_pct", 100 * ratio(float64(c.self), loopTime), "%"},
			metric{l + ".alloc_mb_per_op", ratio(float64(c.alloc)/mb, ops), "MB/op"},
		)
	}
	glue := cost(sum.roots, "op").self + cost(sum.roots, "check").self
	ms = append(ms, metric{"op.self_pct", 100 * ratio(float64(glue), loopTime), "%"})

	part := float64(cost(probed.layers, "core.Partition").total)
	sweepShare := 0.0
	if part > 0 {
		sweepShare = 1 - float64(cost(probed.probes, "probe.fixed_window").total)/part
	}
	repair := float64(cost(probed.layers, "core.RepairOnline").total)
	ms = append(ms,
		metric{"fusion.merged_stmts", float64(total.mergedStmts), "count"},
		metric{"fusion.Coarsen.pct_of_partition", 100 * ratio(float64(cost(probed.probes, "probe.coarsen").total), part), "%"},
		metric{"core.Partition.instances", float64(total.instances), "count"},
		metric{"core.Partition.tasks", float64(total.tasks), "count"},
		metric{"core.Partition.syncs_before", float64(total.syncsBefore), "count"},
		metric{"core.Partition.syncs_after", float64(total.syncsAfter), "count"},
		metric{"core.Partition.window_trials", float64(total.windowTrials), "count"},
		metric{"core.Partition.sweep_share", sweepShare, "ratio"},
		metric{"verify.Check.deps_checked", float64(total.depsChecked), "count"},
		metric{"sim.Run.transfers", float64(total.transfers), "count"},
		metric{"sim.Run.hops", float64(total.hops), "count"},
		metric{"sim.Run.l1_hit_rate", ratio(float64(total.l1Hits), float64(total.l1Refs)), "ratio"},
		metric{"sim.Run.sync_stall_cycles", total.syncStall, "cycles"},
		metric{"core.RepairOnline.migrated_tasks", float64(total.migrated), "count"},
		metric{"core.RepairOnline.residual_tasks", float64(total.residual), "count"},
		metric{"core.RepairOnline.full_share", ratio(float64(total.fulls), float64(total.inputs)), "ratio"},
		metric{"core.RepairOnline.mincost_share", ratio(float64(total.mincosts), float64(total.inputs)), "ratio"},
		metric{"core.RepairOnline.greedy_time_ratio", ratio(float64(cost(probed.probes, "probe.greedy").total), repair), "ratio"},
		metric{"core.RepairOnline.mincost_time_ratio", ratio(float64(cost(probed.probes, "probe.mincost").total), repair), "ratio"},
	)
	ms = append(ms, runtimeMetrics...)
	ms = append(ms,
		metric{"trace.overhead_pct", overheadPct(plain, traced), "%"},
		metric{"trace.min_child_cover_pct", 100 * min(sum.minCover, probed.minCover), "%"},
		metric{"trace.spans", float64(nspans), "count"},
	)
	return ms
}

// overheadPct compares the mean latency of the traced loop's ops with the
// untraced loop's over the ops both ran: both start at the first input.
func overheadPct(plain, traced []time.Duration) float64 {
	n := min(len(plain), len(traced))
	var a, b time.Duration
	for i := 0; i < n; i++ {
		a += plain[i]
		b += traced[i]
	}
	return 100 * (ratio(float64(b), float64(a)) - 1)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileMs is the nearest-rank q-th percentile, in milliseconds.
func percentileMs(lats []time.Duration, q float64) float64 {
	s := slices.Clone(lats)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(k, 0)]) / float64(time.Millisecond)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

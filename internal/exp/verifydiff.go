package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"dmacp/internal/baseline"
	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/par"
	"dmacp/internal/stats"
	"dmacp/internal/verify"
)

// VerifyDiffConfig parameterizes the differential verification harness: how
// many random programs to generate and at what size.
type VerifyDiffConfig struct {
	// Programs is the number of random loop nests generated (default 6).
	Programs int
	// Seed drives both program generation and array contents.
	Seed int64
	// Iters / Elems scale each nest (defaults 24 iterations, 1024 elements).
	Iters, Elems int
	// Jobs bounds the worker pool the programs are verified on. <= 0 means
	// one worker per CPU; 1 forces serial execution. Programs are generated
	// serially from one rng before the fan-out and per-program results merge
	// in program order, so the result is identical at every setting.
	Jobs int
}

func (c VerifyDiffConfig) withDefaults() VerifyDiffConfig {
	if c.Programs <= 0 {
		c.Programs = 6
	}
	if c.Iters <= 0 {
		c.Iters = 24
	}
	if c.Elems <= 0 {
		c.Elems = 1 << 10
	}
	return c
}

// The scheduler variants every generated program is swept over, per cluster
// mode: the partitioner at each window size (0 is the adaptive search), and
// every baseline placement strategy.
var (
	vdModes      = []mesh.ClusterMode{mesh.AllToAll, mesh.Quadrant, mesh.SNC4}
	vdWindows    = []int{0, 1, 2, 4, 8}
	vdStrategies = []baseline.Strategy{baseline.ProfiledLocality, baseline.BlockDistribution, baseline.MCAffine}
)

// VerifyDiffResult summarizes one harness sweep.
type VerifyDiffResult struct {
	// Runs counts verified (program, variant) schedules; DepsChecked sums
	// the dependence pairs proven ordered across them.
	Runs        int
	DepsChecked int
	// Violations holds one formatted line per semantic violation, naming the
	// program and variant that produced it. Empty means every variant's
	// schedule preserves every dependence.
	Violations []string
	// Warnings counts advisory findings (redundant arcs, wrapping
	// subscripts) across all runs.
	Warnings int
	// KindCounts aggregates the per-kind diagnostic tallies of every run.
	// KindCounts[verify.KindStaleReuse] must be zero: a stale L1 reuse is a
	// Violation under the write-invalidate coherence model, and the emitters
	// are required to never plan one.
	KindCounts map[verify.Kind]int
}

// VerifyDiff exposes the differential verification harness as an experiment
// entry: random programs x every scheduler variant, each emitted schedule
// statically verified for dependence preservation.
func (r *Runner) VerifyDiff() (*Experiment, error) {
	cfg := VerifyDiffConfig{Seed: 11, Iters: r.Scale.Iters, Elems: r.Scale.Elems, Jobs: r.Jobs}
	res, err := VerifyDifferential(cfg)
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		ID:         "verifydiff",
		Title:      "Differential schedule verification: random programs x all scheduler variants",
		PaperClaim: "the emitted task DAG orders every RAW/WAR/WAW dependence (Section 4.4 correctness argument)",
		Table:      &stats.Table{Header: []string{"Metric", "Value"}},
		Headline: map[string]float64{
			"violations":  float64(len(res.Violations)),
			"stale_reuse": float64(res.KindCounts[verify.KindStaleReuse]),
		},
	}
	e.Table.Add("schedules verified", res.Runs)
	e.Table.Add("dependence pairs checked", res.DepsChecked)
	e.Table.Add("violations", len(res.Violations))
	e.Table.Add("advisory warnings", res.Warnings)
	e.Table.Add("stale-reuse violations", res.KindCounts[verify.KindStaleReuse])
	addCapped(e.Table, "violation", res.Violations)
	return e, nil
}

// RandomProgram generates one random loop-nest program in the statement
// language: 2-4 statements over a small array pool (so statements collide on
// data and RAW/WAR/WAW chains actually form), affine subscripts with mixed
// strides, an occasional scalar accumulator, and occasional indirect
// accesses through an index array (which exercise the inspector and the
// unresolvable-reference fallbacks). It generates the verifydiff corpus and
// FuzzPartition's seeds, which internal/verify's reference differential
// test replays.
func RandomProgram(rng *rand.Rand) string {
	pool := []string{"A", "B", "C", "D"}
	term := func() string {
		arr := pool[rng.Intn(len(pool))]
		switch rng.Intn(6) {
		case 0:
			return fmt.Sprintf("%s(IX(%d*i))", arr, 1+rng.Intn(2)) // indirect
		case 1:
			return arr + "(0)" // scalar element
		default:
			stride := []int{1, 2, 8}[rng.Intn(3)]
			return fmt.Sprintf("%s(%d*i+%d)", arr, stride, rng.Intn(16))
		}
	}
	var stmts []string
	n := 2 + rng.Intn(3)
	for s := 0; s < n; s++ {
		lhs := pool[rng.Intn(len(pool))]
		var out string
		switch rng.Intn(5) {
		case 0:
			out = fmt.Sprintf("%s(IX(i))", lhs) // indirect output
		case 1:
			out = lhs + "(0)" // accumulator
		default:
			stride := []int{1, 2, 8}[rng.Intn(3)]
			out = fmt.Sprintf("%s(%d*i+%d)", lhs, stride, rng.Intn(16))
		}
		ops := []string{"+", "-", "*"}
		rhs := term()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			if rng.Intn(4) == 0 {
				rhs = "(" + rhs + ops[rng.Intn(len(ops))] + term() + ")"
			} else {
				rhs += ops[rng.Intn(len(ops))] + term()
			}
		}
		stmts = append(stmts, out+" = "+rhs)
	}
	return strings.Join(stmts, "\n")
}

// VerifyDifferential generates random programs and runs the static
// dependence-preservation verifier over every scheduler variant's emitted
// schedule: the partitioner across window sizes and cluster modes, and every
// baseline placement strategy. It is the repo's fuzz-like safety net: any
// emitter change that breaks dependence ordering for some program shape
// surfaces here as a concrete counterexample.
func VerifyDifferential(cfg VerifyDiffConfig) (*VerifyDiffResult, error) {
	cfg = cfg.withDefaults()
	res := &VerifyDiffResult{KindCounts: make(map[verify.Kind]int)}

	// Program generation consumes one shared rng stream, so it must stay
	// serial (and ahead of the fan-out) to keep the generated programs
	// independent of the worker count.
	rng := rand.New(rand.NewSource(cfg.Seed))
	srcs := make([]string, cfg.Programs)
	for p := range srcs {
		srcs[p] = RandomProgram(rng)
	}

	// Each program's variant sweep is independent; partial tallies merge in
	// program order below so the aggregate (and the violation list order)
	// matches the serial harness.
	partials := make([]vdPartial, cfg.Programs)
	if err := par.ForEach(cfg.Jobs, cfg.Programs, func(p int) {
		partials[p] = verifyOneProgram(cfg, p, srcs[p])
	}); err != nil {
		return nil, err
	}
	for p := range partials {
		out := &partials[p]
		if out.err != nil {
			return nil, out.err
		}
		res.Runs += out.runs
		res.DepsChecked += out.deps
		res.Warnings += out.warnings
		for k, c := range out.kinds {
			res.KindCounts[k] += c
		}
		res.Violations = append(res.Violations, out.violations...)
	}
	return res, nil
}

// vdPartial is one program's tally of the differential sweep; partials merge
// into the VerifyDiffResult in program order.
type vdPartial struct {
	err        error
	runs       int
	deps       int
	warnings   int
	kinds      map[verify.Kind]int
	violations []string
}

// verifyOneProgram runs the full variant sweep of one generated program.
func verifyOneProgram(cfg VerifyDiffConfig, p int, src string) (out vdPartial) {
	out.kinds = make(map[verify.Kind]int)
	body, err := ir.ParseStatements(src)
	if err != nil {
		out.err = fmt.Errorf("exp: generated program %d unparseable: %w\n%s", p, err, src)
		return out
	}
	nest := &ir.Nest{
		Name:  fmt.Sprintf("rand%d", p),
		Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: cfg.Iters, Step: 1}},
		Body:  body,
	}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, cfg.Elems, 8)
	prog.Nests = append(prog.Nests, nest)
	store := ir.NewStore(prog)
	store.FillRandom(prog, cfg.Seed+int64(p)+1)

	record := func(variant string, in verify.Input) error {
		rep, err := verify.Check(in, verify.Options{})
		if err != nil {
			return fmt.Errorf("exp: program %d %s: %w", p, variant, err)
		}
		out.runs++
		out.deps += rep.DepsChecked
		out.warnings += rep.WarningCount
		for k, c := range rep.Counts {
			out.kinds[k] += c
		}
		for _, d := range rep.Violations {
			out.violations = append(out.violations,
				fmt.Sprintf("program %d %s: %s\n%s", p, variant, d, src))
		}
		return nil
	}

	for _, mode := range vdModes {
		for _, w := range vdWindows {
			opts := core.DefaultOptions()
			opts.Mode = mode
			if w > 0 {
				opts.FixedWindow = w
			}
			r, err := core.Partition(prog, nest, store, opts)
			if err != nil {
				out.err = fmt.Errorf("exp: program %d partition mode=%v window=%d: %w\n%s", p, mode, w, err, src)
				return out
			}
			if err := record(fmt.Sprintf("partitioner mode=%v window=%d", mode, w),
				verify.PartitionInput(prog, store, r, opts)); err != nil {
				out.err = err
				return out
			}
		}
		for _, strat := range vdStrategies {
			opts := core.DefaultOptions()
			opts.Mode = mode
			b, err := baseline.Place(prog, nest, store, opts, strat)
			if err != nil {
				out.err = fmt.Errorf("exp: program %d baseline %v mode=%v: %w\n%s", p, strat, mode, err, src)
				return out
			}
			// Baselines always emit over the original nest.
			if err := record(fmt.Sprintf("baseline %v mode=%v", strat, mode), verify.Input{
				Prog: prog, Nest: nest, Store: store, Schedule: b.Schedule,
				Mesh: opts.Mesh, Layout: opts.Layout, Translations: b.Translations,
			}); err != nil {
				out.err = err
				return out
			}
		}
	}
	return out
}

package verify_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dmacp/internal/baseline"
	"dmacp/internal/core"
	"dmacp/internal/exp"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/sim"
	"dmacp/internal/verify"
	"dmacp/internal/workloads"
)

// matchReference fails the test unless Check and the pre-rework reference
// return deep-equal reports (diagnostics, counts, DepsChecked,
// RedundantArcs) for in under o.
func matchReference(t *testing.T, name string, in verify.Input, o verify.Options) *verify.Report {
	t.Helper()
	got, gerr := verify.Check(in, o)
	want, werr := verify.ReferenceCheck(in, o)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, reference %v", name, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: report differs from the reference\ngot:  %s\n%v\nwant: %s\n%v",
			name, got.Summary(), got.Lines(), want.Summary(), want.Lines())
	}
	return got
}

// variantInputs builds src as a one-loop nest and returns the verifier
// inputs of every scheduler variant the verifydiff harness sweeps: the
// partitioner at each window size and every baseline strategy, in every
// cluster mode.
func variantInputs(t *testing.T, src string, iters, elems int, fill int64) []suiteCase {
	t.Helper()
	body, err := ir.ParseStatements(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	nest := &ir.Nest{Name: "v", Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: iters, Step: 1}}, Body: body}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, elems, 8)
	prog.Nests = append(prog.Nests, nest)
	store := ir.NewStore(prog)
	store.FillRandom(prog, fill)
	var cases []suiteCase
	for _, mode := range []mesh.ClusterMode{mesh.AllToAll, mesh.Quadrant, mesh.SNC4} {
		opts := core.DefaultOptions()
		opts.Mode = mode
		for _, w := range []int{0, 1, 2, 4, 8} {
			o := opts
			o.FixedWindow = w
			r, err := core.Partition(prog, nest, store, o)
			if err != nil {
				t.Fatalf("%q mode=%v window=%d: %v", src, mode, w, err)
			}
			cases = append(cases, suiteCase{fmt.Sprintf("%q mode=%v window=%d", src, mode, w), verify.PartitionInput(prog, store, r, o)})
		}
		for _, strat := range baselineStrategies {
			b, err := baseline.Place(prog, nest, store, opts, strat)
			if err != nil {
				t.Fatalf("%q %v: %v", src, strat, err)
			}
			cases = append(cases, suiteCase{fmt.Sprintf("%q mode=%v %v", src, mode, strat), verify.Input{
				Prog: prog, Nest: nest, Store: store, Schedule: b.Schedule,
				Mesh: opts.Mesh, Layout: opts.Layout, Translations: b.Translations,
			}})
		}
	}
	return cases
}

// corpusInputs returns the verifydiff corpus (the harness's six programs at
// seed 11, 24 iterations, 1024 elements) and the FuzzPartition seed corpus
// (its eight generated seeds plus its three hand-picked shapes, 16
// iterations, 512 elements), each under every scheduler variant.
func corpusInputs(t *testing.T) []suiteCase {
	t.Helper()
	var cases []suiteCase
	rng := rand.New(rand.NewSource(11))
	for p := 0; p < 6; p++ {
		cases = append(cases, variantInputs(t, exp.RandomProgram(rng), 24, 1<<10, 11+int64(p)+1)...)
	}
	fuzzSeeds := []string{"A(0) = A(0)+B(i)", "A(i) = A(i+1)", "A(IX(i)) = B(IX(2*i))+A(i)"}
	for k := int64(0); k < 8; k++ {
		fuzzSeeds = append(fuzzSeeds, exp.RandomProgram(rand.New(rand.NewSource(k))))
	}
	for _, src := range fuzzSeeds {
		cases = append(cases, variantInputs(t, src, 16, 1<<9, 1)...)
	}
	return cases
}

// mutate returns a copy of s with one to three seeded corruptions: an
// implied arc re-added (through a producer's producer, or from an earlier
// task on a producer's node, which only program order implies), a
// duplicated arc, one or all of a task's arcs dropped, a flipped L1Hit, a
// cycle, a task moved to another node, a dropped fetch, or a corrupted root.
func mutate(rng *rand.Rand, s *core.Schedule, m *mesh.Mesh) *core.Schedule {
	c := s.Clone()
	ts := c.Tasks
	if len(ts) < 2 {
		return c
	}
	addArc := func(p, t int) {
		ts[t].WaitFor = append(ts[t].WaitFor, p)
		ts[t].WaitHops = append(ts[t].WaitHops, m.Distance(ts[p].Node, ts[t].Node))
	}
	// waiter picks a task with at least one producer.
	waiter := func() int {
		for try := 0; try < 64; try++ {
			if t := rng.Intn(len(ts)); len(ts[t].WaitFor) > 0 {
				return t
			}
		}
		return -1
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch kind := rng.Intn(9); kind {
		case 0, 1: // re-add an implied arc
			t := waiter()
			if t < 0 {
				continue
			}
			p := ts[t].WaitFor[rng.Intn(len(ts[t].WaitFor))]
			if kind == 0 && len(ts[p].WaitFor) > 0 {
				addArc(ts[p].WaitFor[rng.Intn(len(ts[p].WaitFor))], t)
				continue
			}
			for e := p - 1; e >= 0; e-- {
				if ts[e].Node == ts[p].Node {
					addArc(e, t)
					break
				}
			}
		case 2: // duplicate an arc
			if t := waiter(); t >= 0 {
				addArc(ts[t].WaitFor[rng.Intn(len(ts[t].WaitFor))], t)
			}
		case 3: // drop an arc, or every arc of a task
			if t := waiter(); t >= 0 {
				i := rng.Intn(len(ts[t].WaitFor))
				if rng.Intn(2) == 0 {
					ts[t].WaitFor, ts[t].WaitHops = nil, nil
					continue
				}
				ts[t].WaitFor = append(ts[t].WaitFor[:i], ts[t].WaitFor[i+1:]...)
				ts[t].WaitHops = append(ts[t].WaitHops[:i], ts[t].WaitHops[i+1:]...)
			}
		case 4: // flip an L1Hit
			for try := 0; try < 64; try++ {
				if tk := ts[rng.Intn(len(ts))]; len(tk.Fetches) > 0 {
					f := &tk.Fetches[rng.Intn(len(tk.Fetches))]
					f.L1Hit = !f.L1Hit
					break
				}
			}
		case 5: // a cycle: an earlier task waits on a later one
			a := rng.Intn(len(ts) - 1)
			addArc(a+1+rng.Intn(len(ts)-a-1), a)
		case 6: // re-place a task, losing its program-order edges
			ts[rng.Intn(len(ts))].Node = mesh.NodeID(rng.Intn(m.Nodes()))
		case 7: // drop a fetch
			if tk := ts[rng.Intn(len(ts))]; len(tk.Fetches) > 0 {
				i := rng.Intn(len(tk.Fetches))
				tk.Fetches = append(tk.Fetches[:i], tk.Fetches[i+1:]...)
			}
		case 8: // a root stores the wrong line, or stops being a root
			if tk := ts[rng.Intn(len(ts))]; tk.IsRoot {
				if rng.Intn(2) == 0 {
					tk.IsRoot = false
				} else {
					tk.ResultLine += 64
				}
			}
		}
	}
	return c
}

// TestCheckMatchesReference is the gate for the verifier's cost rework:
// Check's reports must be deep-equal to the pre-rework reference on the 12
// workloads (partitioner and every baseline, 6×6 at DefaultScale and 32×32
// at 64 iterations), on the verifydiff and FuzzPartition corpora, on
// seeded corruptions of those schedules (the shipped ones are all
// sync-reduced and clean, so redundant arcs, races, stale reuse and
// deadlocks only appear there), and on every candidate the online repair
// ladder checks after mid-run faults (residual schedules with completed
// instances on a degraded mesh).
func TestCheckMatchesReference(t *testing.T) {
	all := verify.Options{MaxDiagnostics: 1 << 20}
	t.Run("corpus", func(t *testing.T) {
		cases := corpusInputs(t)
		rng := rand.New(rand.NewSource(5))
		kinds := make(map[verify.Kind]int)
		for _, c := range cases {
			matchReference(t, c.name, c.in, verify.Options{})
			for mi := 0; mi < 3; mi++ {
				in := c.in
				in.Schedule = mutate(rng, c.in.Schedule, c.in.Mesh)
				rep := matchReference(t, fmt.Sprintf("%s mutant %d", c.name, mi), in, all)
				for k, n := range rep.Counts {
					kinds[k] += n
				}
			}
		}
		// The mutants must reach the findings clean schedules never have.
		for _, k := range []verify.Kind{verify.KindRAW, verify.KindWAR, verify.KindWAW,
			verify.KindStaleReuse, verify.KindDeadlock, verify.KindRedundantArc,
			verify.KindMissingFetch, verify.KindWrongResult} {
			if kinds[k] == 0 {
				t.Errorf("no mutant reports %v: %v", k, kinds)
			}
		}
		t.Logf("mutant findings: %v", kinds)
	})
	for _, sc := range []struct {
		name string
		side int
		sc   workloads.Scale
	}{
		{"suite6x6", 6, workloads.DefaultScale()},
		{"mesh32x32", 32, workloads.Scale{Iters: 64, Elems: 1 << 14}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			cases := suiteInputs(t, sc.side, sc.sc, true)
			for _, c := range cases {
				matchReference(t, c.name, c.in, verify.Options{})
			}
			if sc.side == 6 {
				checkOnlineCandidates(t, cases)
			}
		})
	}
}

// checkOnlineCandidates drives core.RepairOnline on the suite's partitioner
// schedules with mid-run faults and compares Check with the reference on
// every candidate the repair ladder submits.
func checkOnlineCandidates(t *testing.T, cases []suiteCase) {
	t.Helper()
	checked := 0
	for i, c := range cases {
		if i%8 != 0 { // every other nest's partitioner schedule
			continue
		}
		in := c.in
		m := in.Mesh
		cfg := sim.DefaultConfig(m)
		base, err := sim.Run(in.Schedule, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fs := mesh.Inject(m, int64(i), 3, 0, 1, true)
		cfg.FaultEvents = []sim.FaultEvent{{Cycle: 0.5 * base.Cycles, Faults: fs}}
		run, err := sim.Run(in.Schedule, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ck := run.Checkpoints[0]
		in.Faults = fs
		in.Completed = ck.CompletedInstances(in.Schedule)
		checker := func(s *core.Schedule) error {
			cand := in
			cand.Schedule = s
			checked++
			return matchReference(t, c.name+" online candidate", cand, verify.Options{}).Err()
		}
		if _, _, err := core.RepairOnline(in.Schedule, ck, m, fs, core.RepairOptions{LoadThreshold: 0.10}, checker); err != nil {
			t.Fatalf("%s: online repair: %v", c.name, err)
		}
	}
	if checked == 0 {
		t.Fatal("no online repair candidate checked")
	}
}

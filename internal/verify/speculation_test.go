package verify_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/verify"
)

// TestCheckSameAtAnyGOMAXPROCS checks Check's parallel parts on the mutant
// corpus of TestCheckMatchesReference: the reports at GOMAXPROCS 1 (every
// part on the calling goroutine) and 4 deep-equal each other, and some
// mutants make the closure refute a pair the speculative race replay
// assumed ordered, so the replay's re-run on the closure is exercised. At
// a cap of one diagnostic per severity the reports still equal the
// reference's.
func TestCheckSameAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	all := verify.Options{MaxDiagnostics: 1 << 20}
	rng := rand.New(rand.NewSource(5))
	reruns, mutants := 0, 0
	for _, c := range corpusInputs(t) {
		for mi := 0; mi < 3; mi++ {
			in := c.in
			in.Schedule = mutate(rng, c.in.Schedule, c.in.Mesh)
			var reps [2]*verify.Report
			for k, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				rep, err := verify.Check(in, all)
				if err != nil {
					t.Fatalf("%s mutant %d at GOMAXPROCS %d: %v", c.name, mi, procs, err)
				}
				reps[k] = rep
			}
			if !reflect.DeepEqual(reps[0], reps[1]) {
				t.Fatalf("%s mutant %d: GOMAXPROCS 1 and 4 differ\n1: %s\n%v\n4: %s\n%v", c.name, mi,
					reps[0].Summary(), reps[0].Lines(), reps[1].Summary(), reps[1].Lines())
			}
			// One diagnostic per severity: the sub-reports merge under
			// the cap as a serial run fills it.
			matchReference(t, fmt.Sprintf("%s mutant %d capped", c.name, mi), in, verify.Options{MaxDiagnostics: 1})
			mutants++
			if verify.SpeculativeRaces(in) {
				reruns++
			}
		}
	}
	if reruns == 0 {
		t.Fatalf("no mutant of %d re-runs the race replay on the closure", mutants)
	}
	t.Logf("%d of %d mutants re-run the race replay", reruns, mutants)
}

// TestCycleDiscardsPanickingRaceReplay checks that a cyclic schedule whose
// race replay would index past the task list still gets the deadlock
// report: a serial run stops at the cycle and never replays, so the
// replay's recovered panic is discarded.
func TestCycleDiscardsPanickingRaceReplay(t *testing.T) {
	m := mesh.MustNew(2, 2)
	const line = uint64(64)
	// Task 0 claims ID 5, so the L1 hit of task 1 on the line it wrote
	// looks the writer up at tasks[5]; the arcs 0 -> 1 -> 0 form a cycle.
	writer := &core.Task{ID: 5, Node: 0, IsRoot: true, ResultLine: line, WaitFor: []int{1}, WaitHops: []int{1}}
	reader := &core.Task{ID: 1, Node: 1, Iter: 1, IsRoot: true, ResultLine: 2 * line,
		Fetches: []core.Fetch{{From: 0, Line: line, L1Hit: true}}, WaitFor: []int{0}, WaitHops: []int{1}}
	s := &core.Schedule{Tasks: []*core.Task{writer, reader}, Instances: 2}
	s.NumberLines()
	in := verify.Input{Schedule: s, Mesh: m}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the race replay did not panic; the schedule does not exercise the discard")
			}
		}()
		_ = verify.SpeculativeRaces(in)
	}()
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rep, err := verify.Check(in, verify.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Counts[verify.KindDeadlock] != 1 {
				t.Fatalf("cycle not reported as one deadlock: %v", rep.Lines())
			}
			want, err := verify.ReferenceCheck(in, verify.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("report differs from the reference\ngot:  %v\nwant: %v", rep.Lines(), want.Lines())
			}
		})
	}
}

package core

import (
	"slices"
	"testing"
	"unsafe"

	"dmacp/internal/mesh"
)

func TestLoadTrackerBasics(t *testing.T) {
	lt := newLoadTracker(4, 0.10)
	lt.add(0, 100)
	if lt.max1 != 100 || lt.max1Node != 0 {
		t.Fatalf("max1 = %v at %d", lt.max1, lt.max1Node)
	}
	lt.add(1, 50)
	if lt.max2 != 50 {
		t.Fatalf("max2 = %v", lt.max2)
	}
	// Node 0 at 100 vs next-most-loaded 50: another 10 would exceed
	// 1.1*50 = 55... node 0 is already over, so it must be flagged.
	if !lt.wouldOverload(0, 10) {
		t.Error("node 0 not flagged as overloading")
	}
	// Node 2 at 0 taking 10 is far below 1.1*100.
	if lt.wouldOverload(2, 10) {
		t.Error("idle node flagged as overloading")
	}
}

func TestLoadTrackerMaxTransitions(t *testing.T) {
	lt := newLoadTracker(3, 0.10)
	lt.add(0, 10)
	lt.add(1, 20) // node 1 becomes max, node 0 second
	if lt.max1 != 20 || lt.max1Node != 1 || lt.max2 != 10 {
		t.Fatalf("state: max1=%v@%d max2=%v", lt.max1, lt.max1Node, lt.max2)
	}
	lt.add(0, 15) // node 0 back on top with 25
	if lt.max1 != 25 || lt.max1Node != 0 || lt.max2 != 20 {
		t.Fatalf("state: max1=%v@%d max2=%v", lt.max1, lt.max1Node, lt.max2)
	}
	lt.add(0, 5) // same node grows in place
	if lt.max1 != 30 || lt.max1Node != 0 {
		t.Fatalf("state: max1=%v@%d", lt.max1, lt.max1Node)
	}
}

func TestLoadTrackerImbalance(t *testing.T) {
	lt := newLoadTracker(4, 0.10)
	if lt.Imbalance() != 1 {
		t.Errorf("empty imbalance = %v", lt.Imbalance())
	}
	for n := 0; n < 4; n++ {
		lt.add(mesh.NodeID(n), 10)
	}
	if got := lt.Imbalance(); got != 1 {
		t.Errorf("balanced imbalance = %v", got)
	}
	lt.add(0, 30)
	if got := lt.Imbalance(); got <= 1 {
		t.Errorf("skewed imbalance = %v", got)
	}
}

func TestDedupeWaits(t *testing.T) {
	tasks := []*Task{
		{ID: 0},
		{ID: 1},
		{ID: 2, WaitFor: []int{0, 1, 0, 1, 0}, WaitHops: []int{1, 2, 1, 2, 1}},
	}
	removed := DedupeWaits(tasks)
	if removed != 3 {
		t.Errorf("removed = %d, want 3", removed)
	}
	if len(tasks[2].WaitFor) != 2 || tasks[2].WaitFor[0] != 0 || tasks[2].WaitFor[1] != 1 {
		t.Errorf("WaitFor = %v", tasks[2].WaitFor)
	}
	if len(tasks[2].WaitHops) != 2 {
		t.Errorf("WaitHops = %v", tasks[2].WaitHops)
	}
}

func TestReduceSyncsDropsImpliedArc(t *testing.T) {
	// Chain 0 -> 1 -> 2 plus redundant direct arc 0 -> 2.
	tasks := []*Task{
		{ID: 0},
		{ID: 1, WaitFor: []int{0}, WaitHops: []int{1}},
		{ID: 2, WaitFor: []int{1, 0}, WaitHops: []int{1, 2}},
	}
	removed := ReduceSyncs(tasks)
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if len(tasks[2].WaitFor) != 1 || tasks[2].WaitFor[0] != 1 {
		t.Errorf("WaitFor = %v", tasks[2].WaitFor)
	}
}

func TestReduceSyncsKeepsIndependentArcs(t *testing.T) {
	// Diamond: 3 waits on 1 and 2, which wait on 0. The arcs 1->3 and 2->3
	// are both needed; 0->3 would be implied but is absent.
	tasks := []*Task{
		{ID: 0},
		{ID: 1, WaitFor: []int{0}, WaitHops: []int{1}},
		{ID: 2, WaitFor: []int{0}, WaitHops: []int{1}},
		{ID: 3, WaitFor: []int{1, 2}, WaitHops: []int{1, 1}},
	}
	if removed := ReduceSyncs(tasks); removed != 0 {
		t.Errorf("removed = %d, want 0", removed)
	}
	if len(tasks[3].WaitFor) != 2 {
		t.Errorf("WaitFor = %v", tasks[3].WaitFor)
	}
}

func TestReduceSyncsPreservesOrder(t *testing.T) {
	// After reduction the partial order must still place 2 after 0
	// transitively.
	tasks := []*Task{
		{ID: 0},
		{ID: 1, WaitFor: []int{0}, WaitHops: []int{0}},
		{ID: 2, WaitFor: []int{0, 1}, WaitHops: []int{0, 0}},
	}
	ReduceSyncs(tasks)
	// 0 must still be reachable from 2 through 1.
	reach := map[int]bool{2: true}
	changed := true
	for changed {
		changed = false
		for _, task := range tasks {
			if !reach[task.ID] {
				continue
			}
			for _, p := range task.WaitFor {
				if !reach[p] {
					reach[p] = true
					changed = true
				}
			}
		}
	}
	if !reach[0] {
		t.Error("transitive order to task 0 lost")
	}
}

// TestReduceSyncsRequiresTopologicalIDs pins the precondition: ReduceSyncs
// leaves input whose WaitFor entries are not all below their task's ID
// untouched and returns 0, although task 2's arc from 0 is implied.
func TestReduceSyncsRequiresTopologicalIDs(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  *Task
	}{
		{"forward arc", &Task{ID: 3, WaitFor: []int{2, 4}, WaitHops: []int{1, 1}}},
		{"self arc", &Task{ID: 3, WaitFor: []int{3}, WaitHops: []int{0}}},
	} {
		tasks := []*Task{
			{ID: 0},
			{ID: 1, WaitFor: []int{0}, WaitHops: []int{1}},
			{ID: 2, WaitFor: []int{1, 0}, WaitHops: []int{1, 2}},
			tc.bad,
			{ID: 4},
		}
		badWaits := append([]int(nil), tc.bad.WaitFor...)
		if removed := ReduceSyncs(tasks); removed != 0 {
			t.Errorf("%s: removed = %d, want 0", tc.name, removed)
		}
		if !slices.Equal(tasks[2].WaitFor, []int{1, 0}) || !slices.Equal(tasks[2].WaitHops, []int{1, 2}) {
			t.Errorf("%s: task 2 rewritten to %v hops %v", tc.name, tasks[2].WaitFor, tasks[2].WaitHops)
		}
		if !slices.Equal(tc.bad.WaitFor, badWaits) {
			t.Errorf("%s: task 3 rewritten to %v", tc.name, tc.bad.WaitFor)
		}
	}
}

func TestAnalyzeSingleVertexPlan(t *testing.T) {
	// Degenerate plan: store only (statement with all-literal RHS would
	// produce this).
	plan := &StatementPlan{
		Vertices: []PlanVertex{{Node: 0, IsStore: true}},
		Root:     0,
	}
	an := plan.AnalyzeInto(&PlanAnalysis{})
	if an.Parallelism != 1 {
		t.Errorf("parallelism = %d", an.Parallelism)
	}
	if an.Syncs != 0 || an.Subcomputations != 0 {
		t.Errorf("syncs=%d subs=%d", an.Syncs, an.Subcomputations)
	}
	p := &pass{lt: newLoadTracker(1, 0)}
	p.place(plan, an, &stmtPre{opWeight: 1}, 0, 0, 0)
	if len(p.sc.placed) != 1 {
		t.Errorf("placed %d tasks, want 1 (the root)", len(p.sc.placed))
	}
}

func TestAddWaitKeepsParallelSlices(t *testing.T) {
	task := &Task{ID: 1}
	task.addWait(0, 3)
	task.addWait(2, 0)
	if len(task.WaitFor) != len(task.WaitHops) || len(task.WaitFor) != 2 {
		t.Errorf("WaitFor=%v WaitHops=%v", task.WaitFor, task.WaitHops)
	}
}

// TestScheduleFieldSizes pins the sizes the line IDs fit into: LineID and
// ResultID sit in padding, so a Fetch stays 24 bytes and a Task 136 on a
// 64-bit platform.
func TestScheduleFieldSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Fetch{}); got != 24 {
		t.Errorf("Fetch is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(Task{}); got != 136 {
		t.Errorf("Task is %d bytes, want 136", got)
	}
}

// TestNumberLinesFirstTouch checks that NumberLines numbers lines in
// first-touch task order, each task's fetches before its result line, and
// gives a repeated line its first ID.
func TestNumberLinesFirstTouch(t *testing.T) {
	s := &Schedule{Tasks: []*Task{
		{ID: 0, Fetches: []Fetch{{Line: 640}, {Line: 64}}, IsRoot: true, ResultLine: 128},
		{ID: 1, Fetches: []Fetch{{Line: 128}, {Line: 640}}},
		{ID: 2, Fetches: []Fetch{{Line: 192}}, IsRoot: true, ResultLine: 64},
	}}
	s.NumberLines()
	var got []int32
	for _, tk := range s.Tasks {
		for _, fe := range tk.Fetches {
			got = append(got, fe.LineID)
		}
		if tk.IsRoot {
			got = append(got, tk.ResultID)
		}
	}
	if want := []int32{0, 1, 2, 2, 0, 3, 1}; !slices.Equal(got, want) || s.Lines != 4 {
		t.Fatalf("IDs %v over %d lines, want %v over 4", got, s.Lines, want)
	}
}

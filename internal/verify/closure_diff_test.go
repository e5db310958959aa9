package verify

import (
	"math/rand"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
)

// decodeTasks turns a fuzz byte stream into a small task graph. Producer
// references are taken mod n without ordering constraints, so the stream can
// encode self-loops, forward arcs and cycles — the refusal paths must agree
// between the two closure implementations, not just the happy path.
func decodeTasks(data []byte) []*core.Task {
	if len(data) == 0 {
		return nil
	}
	n := 2 + int(data[0])%64
	tasks := make([]*core.Task, n)
	pos := 1
	next := func() int {
		if pos >= len(data) {
			pos = 1
		}
		if pos >= len(data) {
			return 0
		}
		b := int(data[pos])
		pos++
		return b
	}
	for i := range tasks {
		t := &core.Task{ID: i, Node: mesh.NodeID(next() % 36)}
		for k := next() % 4; k > 0; k-- {
			p := next() % (n + 2) // occasionally out of range: both must ignore
			t.WaitFor = append(t.WaitFor, p)
			t.WaitHops = append(t.WaitHops, 0)
		}
		tasks[i] = t
	}
	return tasks
}

// diffClosures builds both closure representations over the tasks and fails
// the test if they disagree on refusal or on any Ordered pair.
func diffClosures(t *testing.T, tasks []*core.Task, sameNodeOrder bool, maxTasks int) {
	t.Helper()
	ref, refStuck := buildBitsetClosure(tasks, sameNodeOrder)
	got, gotStuck := buildClosureBounded(tasks, sameNodeOrder, maxTasks)
	if (ref == nil) != (got == nil) {
		t.Fatalf("cycle disagreement: bitset stuck=%v interval stuck=%v", refStuck, gotStuck)
	}
	if ref == nil {
		if len(refStuck) == 0 || len(gotStuck) == 0 {
			t.Fatalf("cycle reported with empty stuck list: bitset=%v interval=%v", refStuck, gotStuck)
		}
		return
	}
	n := len(tasks)
	for a := -1; a <= n; a++ {
		for b := -1; b <= n; b++ {
			if r, g := ref.Ordered(a, b), got.Ordered(a, b); r != g {
				t.Fatalf("Ordered(%d,%d): bitset=%v interval=%v (n=%d order=%v max=%d)",
					a, b, r, g, n, sameNodeOrder, maxTasks)
			}
		}
	}
}

// FuzzClosureDiff cross-checks the chain-decomposed closure against the old
// bitset closure on arbitrary task graphs: identical Ordered answers and
// identical cycle refusals, across budget regimes (default, and a tiny
// task bound that forces most chains onto the BFS fallback).
func FuzzClosureDiff(f *testing.F) {
	f.Add([]byte{8, 1, 2, 0, 3, 1, 1, 2})
	f.Add([]byte{63, 255, 3, 0, 1, 2, 9, 17, 4, 4, 4})
	f.Add([]byte{2, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks := decodeTasks(data)
		if tasks == nil {
			return
		}
		for _, order := range []bool{false, true} {
			diffClosures(t, tasks, order, 0)
			diffClosures(t, tasks, order, 1) // minimum chain budget
		}
	})
}

// randomSchedule builds a schedule-shaped DAG: backward WaitFor arcs biased
// to recent producers, tasks spread over the mesh's nodes.
func randomSchedule(rng *rand.Rand, n, nodes int) []*core.Task {
	tasks := make([]*core.Task, n)
	for i := range tasks {
		t := &core.Task{ID: i, Node: mesh.NodeID(rng.Intn(nodes))}
		for k := rng.Intn(3); k > 0 && i > 0; k-- {
			back := 1 + rng.Intn(min(i, 40))
			t.WaitFor = append(t.WaitFor, i-back)
			t.WaitHops = append(t.WaitHops, 0)
		}
		tasks[i] = t
	}
	return tasks
}

// TestClosureDifferentialSeeded is the deterministic arm of the fuzz target:
// larger schedule-shaped DAGs across budget regimes, including budgets small
// enough that most reachability queries take the BFS fallback path.
func TestClosureDifferentialSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(250)
		tasks := randomSchedule(rng, n, 36)
		for _, maxTasks := range []int{0, 1, 400} {
			diffClosures(t, tasks, trial%2 == 0, maxTasks)
		}
	}
}

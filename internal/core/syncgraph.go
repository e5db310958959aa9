package core

import (
	"slices"

	"dmacp/internal/reach"
)

// ReduceSyncs performs the transitive synchronization reduction of Section
// 4.5: a WaitFor arc p -> t is redundant when t is already ordered after p
// through the remaining arc structure — concretely, when some other
// producer q of t is reachable from p, so the handshake p -> q ... -> t
// already serializes the pair — or when a later entry of t's list repeats
// p (the last copy is kept). The pass removes every transitively implied
// arc, which is exactly the set verify.Check's sync-sufficiency analysis
// flags — after DedupeWaits + ReduceSyncs the verifier reports zero
// redundant arcs.
//
// Task IDs must be topological: every WaitFor entry of the task at index i
// lies in [0, i), which ValidateScheduleOn enforces for every schedule. Input
// that breaks this (a forward or self arc, a negative producer) is left
// untouched and ReduceSyncs returns 0, as for a cyclic wait graph.
//
// Redundancy is decided by one backward walk per task with two or more
// producers: it starts from all of them at once and follows WaitFor lists,
// visiting only tasks whose ID is at least the lowest producer's — no
// ancestor below it can lead to a producer. A producer the walk reaches is
// an ancestor of another producer and is redundant. In the emitted
// schedules the arcs form short per-instance trees, so a walk touches a
// handful of tasks. On a long carried chain that every iteration also
// reaches through an arc to its head (B(i) = C(i); A(i+1) = A(i)+B(0)) each
// walk runs back to the head, which is quadratic, so all walks of one call
// share a budget of n + e visited arcs (n tasks, e arcs), derived from the
// input rather than tuned. When it runs out, the rest of the call is
// answered by the chain-decomposed reachability index (internal/reach)
// built over the current lists, so the worst case is the index's cost plus
// one O(n+e) pass. The lists are partly reduced by then, which is sound
// because removing an implied arc never changes reachability. The index
// covers only the tasks some task waits for: every producer is one, and so
// is every task on a path between two producers.
//
// Simultaneous removal is safe: in a DAG the transitive reduction is
// unique, and any implying path that itself crosses a redundant arc can be
// rerouted through the arcs that imply it. Removing an implied arc never
// changes the partial order of the task DAG (the closure-preservation
// tests in core prove it, and the race detector re-proves it for every
// shipped schedule); it only avoids charging the handshake twice. The
// function rewrites each task's WaitFor/WaitHops in place, keeping the
// surviving arcs in their original order, and returns the number of arcs
// removed.
func ReduceSyncs(tasks []*Task) int {
	removed, _ := reduceSyncs(tasks)
	return removed
}

// reduceSyncs is ReduceSyncs; it also reports whether the walk budget ran
// out and the reachability index answered the rest of the call.
func reduceSyncs(tasks []*Task) (removed int, fellBack bool) {
	arcs, multi := 0, false
	for i, t := range tasks {
		for _, p := range t.WaitFor {
			if p < 0 || p >= i {
				return 0, false
			}
		}
		arcs += len(t.WaitFor)
		multi = multi || len(t.WaitFor) >= 2
	}
	if !multi {
		return 0, false
	}
	w := &syncWalker{tasks: tasks, seen: make([]uint32, len(tasks)), budget: len(tasks) + arcs}
	for i, t := range tasks {
		if len(t.WaitFor) < 2 {
			continue
		}
		if !w.walk(t) {
			ix, vid := arcIndex(tasks)
			for _, t := range tasks[i:] {
				if len(t.WaitFor) >= 2 {
					w.markIndexed(t, ix, vid)
					removed += w.dropRedundant(t)
				}
			}
			return removed, true
		}
		removed += w.dropRedundant(t)
	}
	return removed, false
}

// syncWalker holds one ReduceSyncs call's walk state. seen stamps tasks per
// examined task: expanded (its producers were pushed) or reached (it is an
// ancestor of one of the task's producers). Stamps grow by two per task, so
// the zeroed slice needs no reset between tasks.
type syncWalker struct {
	tasks  []*Task
	seen   []uint32
	stamp  uint32 // expanded = stamp, reached = stamp+1
	stack  []int
	budget int // arcs the remaining walks may visit
}

// walk marks every task that reaches one of t's producers along arcs,
// visiting only IDs at or above the lowest producer. It reports false,
// leaving the marks incomplete, when the call's arc budget runs out.
func (w *syncWalker) walk(t *Task) bool {
	w.stamp += 2
	expanded, reached := w.stamp, w.stamp+1
	lo := slices.Min(t.WaitFor)
	stack := w.stack[:0]
	for _, p := range t.WaitFor {
		if w.seen[p] < expanded {
			w.seen[p] = expanded
			stack = append(stack, p)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		preds := w.tasks[v].WaitFor
		if w.budget -= len(preds); w.budget < 0 {
			w.stack = stack
			return false
		}
		for _, u := range preds {
			if u < lo || w.seen[u] == reached {
				continue
			}
			if w.seen[u] < expanded {
				stack = append(stack, u)
			}
			w.seen[u] = reached
		}
	}
	w.stack = stack
	return true
}

// markIndexed marks t's producers that reach another of its producers,
// answering from the reachability index instead of a walk.
func (w *syncWalker) markIndexed(t *Task, ix *reach.Index, vid []int32) {
	w.stamp += 2
	for _, p := range t.WaitFor {
		for _, q := range t.WaitFor {
			if p != q && ix.Reaches(int(vid[p]-1), int(vid[q]-1)) {
				w.seen[p] = w.stamp + 1
				break
			}
		}
	}
}

// dropRedundant removes the producers the last walk or index pass marked
// as reached, and every entry a later entry repeats, from t's lists.
func (w *syncWalker) dropRedundant(t *Task) int {
	reached := w.stamp + 1
	keepIDs := t.WaitFor[:0]
	keepHops := t.WaitHops[:0]
	removed := 0
	for i, p := range t.WaitFor {
		if w.seen[p] == reached || slices.Contains(t.WaitFor[i+1:], p) {
			removed++
			continue
		}
		keepIDs = append(keepIDs, p)
		keepHops = append(keepHops, t.WaitHops[i])
	}
	t.WaitFor = keepIDs
	t.WaitHops = keepHops
	return removed
}

// arcIndex builds the reachability index over the WaitFor arcs among the
// tasks some task waits for: every producer, and every task on a path
// between two producers, is one. The second result maps a task ID to its
// index vertex plus one (0 for the tasks nobody waits for).
func arcIndex(tasks []*Task) (*reach.Index, []int32) {
	vid := make([]int32, len(tasks))
	for _, t := range tasks {
		for _, p := range t.WaitFor {
			vid[p] = 1
		}
	}
	n := int32(0)
	for i, v := range vid {
		if v != 0 {
			n++
			vid[i] = n
		}
	}
	b := reach.NewBuilder(int(n))
	for i, t := range tasks {
		if vid[i] == 0 {
			continue
		}
		for _, p := range t.WaitFor {
			b.Edge(int(vid[p]-1), int(vid[i]-1))
		}
	}
	ix, _ := b.Build(0)
	return ix, vid
}

// DedupeWaits drops duplicate producer arcs on each task (the same producer
// registered through both a tree edge and a dependence), keeping the first.
func DedupeWaits(tasks []*Task) int {
	removed := 0
	for _, t := range tasks {
		if len(t.WaitFor) < 2 {
			continue
		}
		seen := make(map[int]bool, len(t.WaitFor))
		keepIDs := t.WaitFor[:0]
		keepHops := t.WaitHops[:0]
		for i, p := range t.WaitFor {
			if seen[p] {
				removed++
				continue
			}
			seen[p] = true
			keepIDs = append(keepIDs, p)
			keepHops = append(keepHops, t.WaitHops[i])
		}
		t.WaitFor = keepIDs
		t.WaitHops = keepHops
	}
	return removed
}

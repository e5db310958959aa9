// Package assign solves the batched migration-assignment problem schedule
// repair faces: place n stranded tasks onto m candidate nodes, each node
// accepting at most cap[j] tasks, minimizing the total migration cost
// (bytes x hops to pull the task's inputs plus the residual-schedule
// movement its placement induces). The greedy ID-order placement repair
// used previously commits each task to its locally cheapest node and can
// force later tasks onto expensive detours; solving the whole batch as a
// min-cost flow removes that ordering artifact.
//
// The implementation is successive shortest augmenting paths with Johnson
// potentials over the bipartite flow network source -> task -> slot ->
// sink. All arc costs are non-negative, so Dijkstra (deterministic
// lowest-index tie-breaking) finds each augmenting path; one unit of flow
// is pushed per iteration, so exactly n paths are computed. The result is
// a minimum-cost assignment, bit-identical across runs and worker counts:
// nothing in the algorithm depends on map order, time, or randomness.
//
// One call allocates its working set once: a flat n x m cost matrix, each
// slot's column of tasks sorted once by (cost, task), the distance,
// predecessor and potential vectors, a typed binary heap of tasks, and
// per-slot occupant lists. An unassigned task sits at distance 0 with
// potential 0 every round, so each round seeds every slot from the first
// unassigned task of its sorted column — O(m), plus each column head's
// amortized advance past assigned tasks — instead of relaxing every
// unassigned task. The next slot to settle is found by a scan over the m
// slots, a settled slot reads its reverse arcs from its occupant list, and
// a round stops once every node at distance <= d is settled, d being the
// distance at which the first slot with spare capacity popped. A round
// then costs O(m) relaxations per assigned task it settles, O(m) per slot
// it settles, and the heap traffic of those tasks. The pop order up to d,
// and so the assignment, is exactly that of a single lazily pruned heap
// over all tasks and slots run to exhaustion.
package assign

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrInfeasible is returned by MinCost when the capacities cannot absorb
// every task (sum(cap) < n).
var ErrInfeasible = errors.New("assign: total slot capacity below task count")

// MinCost assigns each of n tasks to one of m slots, slot j taking at most
// cap[j] tasks, minimizing the summed cost(task, slot). It returns the
// chosen slot per task and the total cost. cost must be non-negative and
// deterministic. Ties between equal-cost assignments break toward lower
// task and slot indices (callers pass tasks in ID order, making repair
// placement reproducible).
func MinCost(n int, cap []int, cost func(task, slot int) int64) ([]int, int64, error) {
	m := len(cap)
	if n == 0 {
		return nil, 0, nil
	}
	if m == 0 {
		return nil, 0, ErrInfeasible
	}
	total := 0
	for _, c := range cap {
		if c > 0 {
			total += c
		}
		if total >= n {
			break
		}
	}
	if total < n {
		return nil, 0, ErrInfeasible
	}

	// Dense row-major cost matrix once: cost is consulted O(n*m) times per
	// Dijkstra pass and must not be recomputed n times over.
	c := make([]int64, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			v := cost(i, j)
			if v < 0 {
				return nil, 0, fmt.Errorf("assign: negative cost %d for task %d slot %d", v, i, j)
			}
			c[i*m+j] = v
		}
	}

	// Residual state. assigned[i] is task i's slot (-1 = none); occupants[j]
	// lists slot j's tasks (in no particular order: each task has exactly
	// one reverse arc, so the order they relax in cannot change a distance
	// or a predecessor) and at[i] is task i's index in its slot's list.
	// Potentials keep reduced costs non-negative across iterations
	// (Johnson's trick), one per task node and one per slot node. An
	// unassigned task sits at distance 0 every round, so its potential
	// stays 0 until it is assigned, and a task is never unassigned again.
	assigned := make([]int, n)
	at := make([]int, n)
	for i := range assigned {
		assigned[i] = -1
	}
	occupants := make([][]int, m)
	potTask := make([]float64, n)
	potSlot := make([]float64, m)

	// Each slot's column sorted once by (cost, task). With every unassigned
	// task at distance 0 and potential 0, slot j's distance from them is its
	// cheapest unassigned task's cost minus potSlot[j], reached from the
	// lowest-index such task: the first unassigned entry of its column.
	// head[j] only moves forward, past tasks assigned since.
	order := make([]int32, n*m)
	head := make([]int, m)
	keys := make([]colKey, n)
	for j := 0; j < m; j++ {
		for i := range keys {
			keys[i] = colKey{c[i*m+j], int32(i)}
		}
		slices.SortFunc(keys, func(a, b colKey) int {
			if a.cost != b.cost {
				return cmp.Compare(a.cost, b.cost)
			}
			return cmp.Compare(a.task, b.task)
		})
		col := order[j*n : j*n+n]
		for i, k := range keys {
			col[i] = k.task
		}
	}

	// Per-round buffers, allocated once. The search is Dijkstra over graph
	// nodes tasks [0, n) and slots [n, n+m), popping in (distance, node)
	// order. Tasks wait in a binary heap with lazy deletion; the m slots
	// are few, so the next slot is kept in best and found by a scan only
	// when the previous best pops. A slot is queued exactly when its
	// distance fell below the one it last popped at (settled, +Inf before
	// its first pop) — the live entry a lazily pruned heap would hold. A
	// task's only reverse arc comes from its own slot, so the path needs
	// no task-side predecessor: it is assigned[i].
	distTask := make([]float64, n)
	distSlot := make([]float64, m)
	settled := make([]float64, m)
	prevTaskOfSlot := make([]int, m) // task whose forward arc reached the slot
	var pq taskHeap
	best := -1
	slotFirst := func(j, k int) bool { // does slot j pop before slot k?
		return distSlot[j] < distSlot[k] || (distSlot[j] == distSlot[k] && j < k)
	}
	// relax scans assigned task i's forward arcs to every slot but its own.
	relax := func(i int) {
		row := c[i*m : i*m+m]
		di, pi, own := distTask[i], potTask[i], assigned[i]
		for j, cij := range row {
			if j == own {
				continue // forward arc already saturated
			}
			if nd := di + (float64(cij) + pi - potSlot[j]); nd < distSlot[j] {
				distSlot[j] = nd
				prevTaskOfSlot[j] = i
				if best < 0 || slotFirst(j, best) {
					best = j
				}
			}
		}
	}

	for round := 0; round < n; round++ {
		// Shortest augmenting path from the super-source (all unassigned
		// tasks at distance 0) to any slot with spare capacity, over reduced
		// costs.
		for i := range distTask {
			distTask[i] = math.Inf(1)
		}
		for j := range settled {
			settled[j] = math.Inf(1)
		}
		pq, best = pq[:0], -1
		// The unassigned tasks hold the lowest keys and no other node can
		// reach distance 0 before they are all popped, so each slot is seeded
		// from its column head: the state relaxing them in index order leaves.
		for j := 0; j < m; j++ {
			col := order[j*n : j*n+n]
			h := head[j]
			for assigned[col[h]] >= 0 {
				h++
			}
			head[j] = h
			i := int(col[h])
			distSlot[j] = float64(c[i*m+j]) - potSlot[j]
			prevTaskOfSlot[j] = i
			if best < 0 || slotFirst(j, best) {
				best = j
			}
		}
		// Settle nodes until the next key exceeds d, the distance at which
		// the first slot with spare capacity popped: every node at distance
		// <= d is then final, and so is every predecessor on a path to one.
		d := math.Inf(1)
		for {
			for len(pq) > 0 && pq[0].dist > distTask[pq[0].task] {
				pq.pop() // superseded by a later, shorter entry
			}
			// On equal distance the task pops first: its node index is the
			// lower one.
			if len(pq) > 0 && (best < 0 || pq[0].dist <= distSlot[best]) {
				if pq[0].dist > d {
					break
				}
				relax(pq.pop().task)
				continue
			}
			if best < 0 || distSlot[best] > d {
				break
			}
			j := best
			settled[j] = distSlot[j]
			if math.IsInf(d, 1) && len(occupants[j]) < cap[j] {
				d = distSlot[j]
			}
			// Reverse arcs: slots with occupants can release a task.
			for _, i := range occupants[j] {
				rc := -float64(c[i*m+j]) - potTask[i] + potSlot[j]
				if nd := distSlot[j] + rc; nd < distTask[i] {
					distTask[i] = nd
					pq.push(taskItem{dist: nd, task: i})
				}
			}
			best = -1
			for k := range distSlot {
				if distSlot[k] < settled[k] && (best < 0 || slotFirst(k, best)) {
					best = k
				}
			}
		}
		if math.IsInf(d, 1) {
			return nil, 0, ErrInfeasible
		}

		// The path ends at the lowest-index spare slot at distance d. It
		// need not be the first spare slot to pop: a slot popped at d can
		// release an occupant at d whose forward arc then brings a
		// lower-index spare slot down to d.
		endSlot := 0
		for len(occupants[endSlot]) >= cap[endSlot] || distSlot[endSlot] != d {
			endSlot++
		}

		// Update potentials with the distances capped at d (the standard SSP
		// rule: capping keeps every residual reduced cost non-negative for
		// the next pass). Every node is reachable — each slot from any
		// unassigned task, each assigned task from its slot — and each one
		// left unsettled lies beyond d, so it adds exactly d. Unassigned
		// tasks sit at distance 0 and add nothing.
		for i := 0; i < n; i++ {
			if assigned[i] >= 0 {
				potTask[i] += math.Min(distTask[i], d)
			}
		}
		for j := 0; j < m; j++ {
			potSlot[j] += math.Min(distSlot[j], d)
		}

		// Augment one unit along the alternating path, flipping assignments
		// and moving each flipped task between occupant lists.
		j := endSlot
		for {
			i := prevTaskOfSlot[j]
			prevJ := assigned[i] // the slot i leaves, or -1 at path start
			if prevJ >= 0 {
				occ := occupants[prevJ]
				last := occ[len(occ)-1]
				occ[at[i]], at[last] = last, at[i]
				occupants[prevJ] = occ[:len(occ)-1]
			}
			assigned[i] = j
			at[i] = len(occupants[j])
			occupants[j] = append(occupants[j], i)
			if prevJ < 0 {
				break
			}
			j = prevJ
		}
	}

	var totalCost int64
	for i, j := range assigned {
		totalCost += c[i*m+j]
	}
	return assigned, totalCost, nil
}

// colKey is one entry of a slot's cost-sorted column.
type colKey struct {
	cost int64
	task int32
}

// taskItem is one task entry of the Dijkstra pass's queue.
type taskItem struct {
	dist float64
	task int
}

// less orders entries by distance, breaking ties toward the lower task
// index so the search (and therefore the assignment) is deterministic. No
// two entries share a key — a task is re-queued only at a strictly lower
// distance — so the pop sequence is fixed by the entries alone, whatever
// the heap's internal layout.
func (a taskItem) less(b taskItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.task < b.task
}

// taskHeap is a binary min-heap of task entries.
type taskHeap []taskItem

func (h *taskHeap) push(it taskItem) {
	q := append(*h, it)
	k := len(q) - 1
	for k > 0 {
		p := (k - 1) / 2
		if !q[k].less(q[p]) {
			break
		}
		q[k], q[p] = q[p], q[k]
		k = p
	}
	*h = q
}

func (h *taskHeap) pop() taskItem {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	k := 0
	for {
		l := 2*k + 1
		if l >= last {
			break
		}
		if r := l + 1; r < last && q[r].less(q[l]) {
			l = r
		}
		if !q[l].less(q[k]) {
			break
		}
		q[k], q[l] = q[l], q[k]
		k = l
	}
	*h = q
	return top
}

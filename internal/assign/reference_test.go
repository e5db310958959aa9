package assign

import (
	"container/heap"
	"fmt"
	"math"
)

// referenceMinCost is MinCost as it stood before the allocation-free
// rework, kept as the test-only reference TestMinCostMatchesReference and
// FuzzMinCost compare MinCost against: the same successive-shortest-path
// algorithm over a matrix of per-task rows, fresh distance and predecessor
// buffers every round, every unassigned task pushed through a boxed
// container/heap, and reverse arcs found by scanning all n tasks on every
// slot pop.
func referenceMinCost(n int, cap []int, cost func(task, slot int) int64) ([]int, int64, error) {
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

	// Dense cost matrix once: cost is consulted O(n*m) times per Dijkstra
	// pass and must not be recomputed n times over.
	c := make([][]int64, n)
	for i := range c {
		c[i] = make([]int64, m)
		for j := 0; j < m; j++ {
			v := cost(i, j)
			if v < 0 {
				return nil, 0, fmt.Errorf("assign: negative cost %d for task %d slot %d", v, i, j)
			}
			c[i][j] = v
		}
	}

	// Residual state. assigned[i] is task i's slot (-1 = none); used[j]
	// counts slot j's occupants. Potentials keep reduced costs non-negative
	// across iterations (Johnson's trick), with one potential per task node
	// and one per slot node.
	assigned := make([]int, n)
	for i := range assigned {
		assigned[i] = -1
	}
	used := make([]int, m)
	potTask := make([]float64, n)
	potSlot := make([]float64, m)

	var totalCost int64
	for round := 0; round < n; round++ {
		// Shortest augmenting path from the super-source (all unassigned
		// tasks at distance 0) to any slot with spare capacity, over reduced
		// costs. Graph nodes: tasks [0,n), slots [n, n+m).
		distTask := make([]float64, n)
		distSlot := make([]float64, m)
		for i := range distTask {
			distTask[i] = math.Inf(1)
		}
		for j := range distSlot {
			distSlot[j] = math.Inf(1)
		}
		prevSlotOfTask := make([]int, n) // slot whose reverse arc reached the task
		prevTaskOfSlot := make([]int, m) // task whose forward arc reached the slot
		for i := range prevSlotOfTask {
			prevSlotOfTask[i] = -1
		}
		for j := range prevTaskOfSlot {
			prevTaskOfSlot[j] = -1
		}

		pq := &refPathHeap{}
		for i := 0; i < n; i++ {
			if assigned[i] < 0 {
				distTask[i] = 0
				heap.Push(pq, refPathItem{dist: 0, node: i})
			}
		}
		for pq.Len() > 0 {
			it := heap.Pop(pq).(refPathItem)
			if it.node < n {
				i := it.node
				if it.dist > distTask[i] {
					continue
				}
				for j := 0; j < m; j++ {
					if assigned[i] == j {
						continue // forward arc already saturated
					}
					rc := float64(c[i][j]) + potTask[i] - potSlot[j]
					if nd := distTask[i] + rc; nd < distSlot[j] {
						distSlot[j] = nd
						prevTaskOfSlot[j] = i
						heap.Push(pq, refPathItem{dist: nd, node: n + j})
					}
				}
			} else {
				j := it.node - n
				if it.dist > distSlot[j] {
					continue
				}
				// Reverse arcs: slots with occupants can release a task.
				for i := 0; i < n; i++ {
					if assigned[i] != j {
						continue
					}
					rc := -float64(c[i][j]) - potTask[i] + potSlot[j]
					if nd := distSlot[j] + rc; nd < distTask[i] {
						distTask[i] = nd
						prevSlotOfTask[i] = j
						heap.Push(pq, refPathItem{dist: nd, node: i})
					}
				}
			}
		}

		// Cheapest reachable slot with spare capacity ends the path; ties
		// break toward the lower slot index by scan order.
		endSlot := -1
		for j := 0; j < m; j++ {
			if used[j] >= cap[j] || math.IsInf(distSlot[j], 1) {
				continue
			}
			if endSlot < 0 || distSlot[j] < distSlot[endSlot] {
				endSlot = j
			}
		}
		if endSlot < 0 {
			return nil, 0, ErrInfeasible
		}

		// Update potentials with the computed distances, capped at the
		// augmenting path's length (the standard SSP rule: capping keeps
		// every residual reduced cost non-negative for the next Dijkstra
		// pass; unreached nodes keep their old potential).
		d := distSlot[endSlot]
		for i := 0; i < n; i++ {
			if !math.IsInf(distTask[i], 1) {
				potTask[i] += math.Min(distTask[i], d)
			}
		}
		for j := 0; j < m; j++ {
			if !math.IsInf(distSlot[j], 1) {
				potSlot[j] += math.Min(distSlot[j], d)
			}
		}

		// Augment one unit along the alternating path, flipping assignments.
		used[endSlot]++
		j := endSlot
		for {
			i := prevTaskOfSlot[j]
			prevJ := prevSlotOfTask[i] // slot i was assigned to, or -1 at path start
			assigned[i] = j
			if prevJ < 0 {
				break
			}
			j = prevJ
		}
	}

	for i, j := range assigned {
		totalCost += c[i][j]
	}
	return assigned, totalCost, nil
}

// refPathItem is one priority-queue entry of the Dijkstra pass.
type refPathItem struct {
	dist float64
	node int
}

// refPathHeap orders items by distance, breaking ties toward the lower node
// index so the search (and therefore the assignment) is deterministic.
type refPathHeap []refPathItem

func (h refPathHeap) Len() int { return len(h) }
func (h refPathHeap) Less(a, b int) bool {
	if h[a].dist != h[b].dist {
		return h[a].dist < h[b].dist
	}
	return h[a].node < h[b].node
}
func (h refPathHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *refPathHeap) Push(x any)   { *h = append(*h, x.(refPathItem)) }
func (h *refPathHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

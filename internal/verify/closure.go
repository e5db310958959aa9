package verify

import (
	"dmacp/internal/core"
	"dmacp/internal/reach"
)

// Closure is a happens-before relation over a task DAG, backed by the
// chain-decomposed reachability index in internal/reach: per-task ancestor
// labels over topological chains, with an on-demand BFS for chains beyond
// the memory budget. Unlike the ancestor-bitset representation it replaced
// (O(n²/64) words — a 100k-task nest would have needed 1.25 GB and was
// refused outright), the index costs O(n · chains). With per-node program
// order included there is at most one chain per node in use (see
// buildClosureBounded), so the labels take 4 bytes × tasks × used nodes, up
// to the chain budget: a 100k-task nest on 36 nodes needs about 14 MB.
//
// A Closure reuses query scratch and must not be queried concurrently.
type Closure struct {
	ix *reach.Index
}

// maxClosureTasks is the reachability index's soft memory bound: chainBudget
// converts it into an indexed-chain budget equal to what the old
// ancestor-bitset closure would have spent at that many tasks (n²/8 bytes),
// clamped to [16, 512] chains. Schedules of any size are accepted — queries
// past the budget fall back to an on-demand BFS, trading time, never
// correctness. The index holds one chain per mesh node in use at most, so it
// costs 4 bytes × tasks × min(used nodes, budget): about 0.6 MB for a
// 4,000-task schedule on 6×6.
const maxClosureTasks = 20000

// BuildClosure computes the reachability closure of the tasks under the
// union of their WaitFor arcs and — when sameNodeOrder is set — the per-node
// program order (tasks placed on one node execute in ID order; both the
// simulator and the generated per-node programs serialize them that way).
//
// The graph is processed with Kahn's algorithm rather than by trusting the
// IDs, so corrupted schedules are handled: when the wait graph contains a
// cycle the closure is nil and the second result lists the (capped) IDs of
// tasks stuck on or behind the cycle — the tasks that would deadlock.
func BuildClosure(tasks []*core.Task, sameNodeOrder bool) (*Closure, []int) {
	return buildClosureBounded(tasks, sameNodeOrder, maxClosureTasks)
}

// buildClosureBounded is BuildClosure under the soft memory bound maxTasks
// (see maxClosureTasks; <= 0 means maxClosureTasks). Tests pass a tiny bound
// to force most chains onto the BFS fallback.
func buildClosureBounded(tasks []*core.Task, sameNodeOrder bool, maxTasks int) (*Closure, []int) {
	n := len(tasks)
	b := reach.NewBuilder(n)
	// Program-order edges go in first, so each task's same-node predecessor
	// heads its predecessor list and reach's greedy decomposition extends
	// that node's chain before considering a wait arc: the chain count then
	// stays at or below the number of nodes in use.
	if sameNodeOrder {
		lastOn := make(map[int]int)
		for i, t := range tasks {
			if prev, ok := lastOn[int(t.Node)]; ok {
				b.Edge(prev, i)
			}
			lastOn[int(t.Node)] = i
		}
	}
	for i, t := range tasks {
		for _, p := range t.WaitFor {
			if p >= 0 && p < n && p != i {
				b.Edge(p, i)
			}
		}
	}
	ix, stuck := b.Build(chainBudget(maxTasks, n))
	if ix == nil {
		return nil, stuck
	}
	return &Closure{ix: ix}, nil
}

// chainBudget converts a soft memory bound of maxTasks tasks into an
// indexed-chain count: budget bytes = maxTasks²/8 (the bitset's cost at the
// bound), labels cost 4·n bytes per chain, clamped to [16, 512] so tiny
// budgets stay correct (BFS residue) and huge ones stay bounded.
func chainBudget(maxTasks, n int) int {
	if maxTasks <= 0 {
		maxTasks = maxClosureTasks
	}
	if n == 0 {
		return 16
	}
	budget := maxTasks * maxTasks / 8 / (4 * n)
	if budget < 16 {
		budget = 16
	}
	if budget > 512 {
		budget = 512
	}
	return budget
}

// Ordered reports whether task a happens before task b (or a == b). It is
// the query the race checks reduce to: a dependence w -> r is preserved
// exactly when Ordered(w, r).
func (c *Closure) Ordered(a, b int) bool {
	if a == b {
		return true
	}
	return c.ix.Reaches(a, b)
}

// Len returns the number of tasks the closure covers.
func (c *Closure) Len() int { return c.ix.Len() }

// Equal reports whether two closures describe the identical partial order.
// The ReduceSyncs tests use it to prove arc elimination never changes task
// ordering. It compares the orders pairwise (O(n²) queries), which is fine
// at test scale; it is not meant for production-size schedules.
func (c *Closure) Equal(o *Closure) bool {
	if o == nil || c.Len() != o.Len() {
		return false
	}
	n := c.Len()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if c.Ordered(a, b) != o.Ordered(a, b) {
				return false
			}
		}
	}
	return true
}

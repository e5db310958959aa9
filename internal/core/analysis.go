package core

import "sort"

// PlanAnalysis is the rooted-tree view of a StatementPlan with the metrics
// the evaluation reports: subcomputation counts, intra-statement parallelism
// and synchronization needs.
type PlanAnalysis struct {
	// Parent[v] is the tree parent of vertex v (-1 for the root).
	Parent []int
	// Children[v] lists v's children, ascending.
	Children [][]int
	// PostOrder lists vertices children-before-parents, the execution order
	// of subcomputations (Section 4.3).
	PostOrder []int
	// OpsAt[v] is the number of binary combines performed at vertex v.
	OpsAt []int
	// EdgeUp[v] is the weight of the edge from v to its parent (0 for root).
	EdgeUp []int
	// Subcomputations is the number of vertices performing at least one op.
	Subcomputations int
	// Parallelism is the number of independent leaf-to-root chains that can
	// execute concurrently (the paper's degree of parallelism, Figure 14).
	Parallelism int
	// Syncs is the number of point-to-point synchronizations the statement
	// needs before reduction: one per tree edge whose child subtree produced
	// a computed partial result (Figures 6 and 15).
	Syncs int

	// Reusable working storage for AnalyzeInto; never read outside a call.
	adj      [][]PlanEdge
	visited  []bool
	stack    []int
	computes []bool
}

// AnalyzeInto roots the plan at its store vertex and derives the metrics
// into caller-owned storage: all of a's slices are truncated and refilled in
// place, so a single PlanAnalysis can serve every statement instance of a
// scheduling pass without reallocating.
func (p *StatementPlan) AnalyzeInto(a *PlanAnalysis) *PlanAnalysis {
	n := len(p.Vertices)
	a.Parent = growInts(a.Parent, n)
	a.OpsAt = growInts(a.OpsAt, n)
	a.EdgeUp = growInts(a.EdgeUp, n)
	a.PostOrder = a.PostOrder[:0]
	a.Subcomputations, a.Parallelism, a.Syncs = 0, 0, 0
	if cap(a.Children) < n {
		a.Children = append(a.Children[:cap(a.Children)], make([][]int, n-cap(a.Children))...)
	}
	a.Children = a.Children[:n]
	if cap(a.adj) < n {
		a.adj = append(a.adj[:cap(a.adj)], make([][]PlanEdge, n-cap(a.adj))...)
	}
	a.adj = a.adj[:n]
	a.visited = growBools(a.visited, n)
	a.computes = growBools(a.computes, n)
	for i := 0; i < n; i++ {
		a.Parent[i] = -1
		a.OpsAt[i] = 0
		a.EdgeUp[i] = 0
		a.Children[i] = a.Children[i][:0]
		a.adj[i] = a.adj[i][:0]
		a.visited[i] = false
		a.computes[i] = false
	}
	for _, e := range p.Edges {
		a.adj[e.From] = append(a.adj[e.From], e)
		a.adj[e.To] = append(a.adj[e.To], PlanEdge{From: e.To, To: e.From, Weight: e.Weight})
	}
	// Iterative DFS from the root.
	a.stack = append(a.stack[:0], p.Root)
	a.visited[p.Root] = true
	for len(a.stack) > 0 {
		v := a.stack[len(a.stack)-1]
		a.stack = a.stack[:len(a.stack)-1]
		for _, e := range a.adj[v] {
			if !a.visited[e.To] {
				a.visited[e.To] = true
				a.Parent[e.To] = v
				a.EdgeUp[e.To] = e.Weight
				a.Children[v] = append(a.Children[v], e.To)
				a.stack = append(a.stack, e.To)
			}
		}
		sort.Ints(a.Children[v])
	}
	a.buildPostOrder(p.Root)

	// Ops per vertex: combining k incoming values (local lines + child
	// partials) takes k-1 binary ops; a root with one incoming value just
	// stores it.
	leaves := 0
	for _, v := range a.PostOrder {
		incoming := len(p.Vertices[v].Lines) + len(a.Children[v])
		if incoming >= 2 {
			a.OpsAt[v] = incoming - 1
			a.Subcomputations++
		}
		a.computes[v] = a.OpsAt[v] > 0
		for _, c := range a.Children[v] {
			if a.computes[c] {
				a.computes[v] = true // subtree computed something
			}
		}
		if len(a.Children[v]) == 0 && v != p.Root {
			leaves++
		}
	}
	if leaves == 0 {
		leaves = 1
	}
	a.Parallelism = leaves
	// Syncs: a parent must wait for a child's result only when the child
	// subtree computed a partial; a child that merely holds data is read
	// with an ordinary remote fetch.
	for v := 0; v < n; v++ {
		if v == p.Root || a.Parent[v] == -1 {
			continue
		}
		if a.computes[v] {
			a.Syncs++
		}
	}
	return a
}

// buildPostOrder appends the subtree of v in children-before-parent order.
func (a *PlanAnalysis) buildPostOrder(v int) {
	for _, c := range a.Children[v] {
		a.buildPostOrder(c)
	}
	a.PostOrder = append(a.PostOrder, v)
}

// growInts returns s resized to n elements, reallocating only on growth;
// contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growBools returns s resized to n elements, reallocating only on growth;
// contents are unspecified.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

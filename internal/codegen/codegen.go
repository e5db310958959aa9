// Package codegen renders a partitioned schedule as the per-node program the
// paper's compiler would emit (Section 4.5, Figure 8): each node's listing
// shows the subcomputations assigned to it, the data it gathers (with the
// service level of each access), the point-to-point synchronizations it
// waits on, and the result transfers it sends to consumers on other nodes.
//
// The listing is pseudo-code — the reproduction schedules abstract combine
// operations, not concrete arithmetic — but the structure (which statement
// instance runs where, what travels, who waits on whom) is exactly the
// emitted schedule, so the output is the ground truth for inspecting
// partitioning decisions.
package codegen

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
)

// Generate writes the per-node program of the schedule to w, one listing per
// node with tasks, in node order. labels names cache lines ("B[24]");
// unknown lines render as hex addresses. body is the nest body the schedule
// was generated from, used to annotate statement labels; it may be nil.
// maxTasksPerNode truncates each node's listing (0 = unlimited).
func Generate(w io.Writer, sched *core.Schedule, m *mesh.Mesh, labels map[uint64]string, body []*ir.Statement, maxTasksPerNode int) error {
	if sched == nil || m == nil {
		return fmt.Errorf("codegen: schedule and mesh are required")
	}
	// Group tasks by node, preserving schedule order.
	byNode := make(map[mesh.NodeID][]*core.Task)
	consumers := make(map[int][]*core.Task)
	for _, t := range sched.Tasks {
		byNode[t.Node] = append(byNode[t.Node], t)
		for _, p := range t.WaitFor {
			consumers[p] = append(consumers[p], t)
		}
	}
	nodes := make([]mesh.NodeID, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	name := func(line uint64) string {
		if l, ok := labels[line]; ok {
			return l
		}
		return fmt.Sprintf("line_%#x", line)
	}
	stmtLabel := func(t *core.Task) string {
		if body != nil && t.Stmt < len(body) && body[t.Stmt].Label != "" {
			return fmt.Sprintf("%s i=%d", body[t.Stmt].Label, t.Iter)
		}
		return fmt.Sprintf("S%d i=%d", t.Stmt+1, t.Iter)
	}

	fmt.Fprintf(w, "// generated per-node program: %d tasks on %d nodes, %d syncs (from %d before reduction)\n",
		len(sched.Tasks), len(byNode), sched.SyncsAfter, sched.SyncsBefore)
	for _, n := range nodes {
		tasks := byNode[n]
		c := m.CoordOf(n)
		fmt.Fprintf(w, "\nnode %d @(%d,%d):  // %d tasks\n", n, c.X, c.Y, len(tasks))
		shown := tasks
		if maxTasksPerNode > 0 && len(shown) > maxTasksPerNode {
			shown = shown[:maxTasksPerNode]
		}
		for _, t := range shown {
			renderTask(w, t, m, name, stmtLabel(t), consumers[t.ID])
		}
		if len(shown) < len(tasks) {
			fmt.Fprintf(w, "  ... %d more tasks\n", len(tasks)-len(shown))
		}
	}
	return nil
}

func renderTask(w io.Writer, t *core.Task, m *mesh.Mesh, name func(uint64) string, label string, consumers []*core.Task) {
	// Synchronizations first, as in Figure 8b. A producer on the same node
	// is plain program order and needs no sync message.
	for i, p := range t.WaitFor {
		if t.WaitHops[i] > 0 {
			fmt.Fprintf(w, "  sync(t%d)\n", p)
		}
	}
	// Operand list: fetched lines with their service level, plus awaited
	// partials.
	var operands []string
	for _, f := range t.Fetches {
		op := name(f.Line)
		switch {
		case f.L1Hit:
			op += "<L1>"
		case f.L2Miss:
			op += fmt.Sprintf("<DRAM@%d>", f.From)
		case f.From != t.Node:
			op += fmt.Sprintf("<-%d", f.From)
		}
		operands = append(operands, op)
	}
	for _, p := range t.WaitFor {
		operands = append(operands, fmt.Sprintf("t%d", p))
	}
	lhs := fmt.Sprintf("t%d", t.ID)
	if t.IsRoot {
		lhs = name(t.ResultLine)
	}
	fmt.Fprintf(w, "  %s = combine(%s)  // %s", lhs, strings.Join(operands, ", "), label)
	if t.Ops > 0 {
		fmt.Fprintf(w, ", cost %.0f", t.Ops)
	}
	fmt.Fprintln(w)
	// Result transfers to remote consumers.
	sent := map[mesh.NodeID]bool{}
	for _, cons := range consumers {
		if cons.Node != t.Node && !sent[cons.Node] {
			sent[cons.Node] = true
			fmt.Fprintf(w, "  send %s -> node %d (%d hops)\n", lhs, cons.Node, m.Distance(t.Node, cons.Node))
		}
	}
}

// Summary returns a short textual digest of the schedule: tasks per node
// distribution and sync statistics, for CLI headers.
func Summary(sched *core.Schedule, m *mesh.Mesh) string {
	counts := make(map[mesh.NodeID]int)
	for _, t := range sched.Tasks {
		counts[t.Node]++
	}
	maxT, minT := 0, 1<<30
	for _, c := range counts {
		if c > maxT {
			maxT = c
		}
		if c < minT {
			minT = c
		}
	}
	if len(counts) == 0 {
		minT = 0
	}
	return fmt.Sprintf("%d tasks over %d/%d nodes (min %d, max %d per node), %d syncs",
		len(sched.Tasks), len(counts), m.Nodes(), minT, maxT, sched.SyncsAfter)
}

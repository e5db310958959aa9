package core

import "dmacp/internal/mesh"

// Fetch is a plain data access consumed by a task: the line travels from its
// resident node to the task's node as an ordinary cache request (no
// synchronization). From == the task's node means a purely local access
// (home bank, reused L1 copy, or data already at the MC node).
type Fetch struct {
	From mesh.NodeID
	Line uint64
	// L2Miss marks accesses served by a memory controller (DRAM latency).
	L2Miss bool
	// L1Hit marks accesses satisfied from a reused L1 copy.
	L1Hit bool
}

// Task is one subcomputation instance placed on a node. Tasks form a DAG via
// WaitFor (producer results the task must synchronize on).
type Task struct {
	ID   int
	Node mesh.NodeID
	// Ops is the weighted operation cost (division counted at DivWeight).
	Ops float64
	// Fetches are the plain line accesses the task performs.
	Fetches []Fetch
	// WaitFor lists producer task IDs whose computed results this task
	// synchronizes on (including inter-statement dependences). The paired
	// WaitHops give the network distance each producer's result crosses.
	WaitFor  []int
	WaitHops []int
	// IsRoot marks the final task of a statement instance (the one that
	// stores the result at the output's home node); ResultLine is the line
	// the root's store writes.
	IsRoot     bool
	ResultLine uint64
	// Stmt and Iter identify the statement instance the task belongs to.
	Stmt, Iter int
	// Window is the index of the statement window the task was scheduled in.
	Window int
}

// Schedule is the partitioner's output for one nest: the full task DAG plus
// synchronization accounting. Once published it is read concurrently
// (simulator, verifier, experiment engine) and must not be mutated outside
// this package; repair works on a Clone. `make race` fails on a write that
// races a reader, and TestScheduleDigests and `make jobs-identical` on one
// that changes emitted bytes.
type Schedule struct {
	Tasks []*Task
	// SyncsBefore counts synchronization arcs before transitive reduction;
	// SyncsAfter counts the arcs that remain (and are charged by the
	// simulator).
	SyncsBefore, SyncsAfter int
	// Instances is the number of statement instances scheduled.
	Instances int
}

// Clone returns a deep copy of the schedule; repair mutates the copy so the
// pristine schedule survives for comparison and for escalation retries. The
// copy takes three allocations beyond its task-pointer slice: one slab each
// for the tasks, their fetches, and their WaitFor and WaitHops entries.
// Every sub-slice is capped at its length, so appending to one task's slice
// reallocates it rather than overwriting its neighbour's.
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{
		Tasks:       make([]*Task, len(s.Tasks)),
		SyncsBefore: s.SyncsBefore,
		SyncsAfter:  s.SyncsAfter,
		Instances:   s.Instances,
	}
	nf, nw := 0, 0
	for _, t := range s.Tasks {
		nf += len(t.Fetches)
		nw += len(t.WaitFor) + len(t.WaitHops)
	}
	tasks := make([]Task, len(s.Tasks))
	fetches := make([]Fetch, 0, nf)
	ints := make([]int, 0, nw)
	for i, t := range s.Tasks {
		ct := &tasks[i]
		*ct = *t
		ct.Fetches, fetches = carve(fetches, t.Fetches)
		ct.WaitFor, ints = carve(ints, t.WaitFor)
		ct.WaitHops, ints = carve(ints, t.WaitHops)
		out.Tasks[i] = ct
	}
	return out
}

// carve copies src onto the end of slab and returns the copy, capped at its
// length (nil when src is empty), along with the grown slab. Callers size
// the slab's capacity for every copy, so appends never move it.
func carve[E any](slab, src []E) (cp, grown []E) {
	if len(src) == 0 {
		return nil, slab
	}
	a := len(slab)
	slab = append(slab, src...)
	return slab[a:len(slab):len(slab)], slab
}

// addWait records a synchronization arc from producer to consumer crossing
// the given number of network hops.
func (t *Task) addWait(producer int, hops int) {
	t.WaitFor = append(t.WaitFor, producer)
	t.WaitHops = append(t.WaitHops, hops)
}

// loadTracker implements the paper's load-balancing rule: a node is skipped
// when assigning work would put it more than threshold above the next most
// loaded node (Section 4.5).
type loadTracker struct {
	load      []float64
	max1      float64
	max1Node  int
	max2      float64
	threshold float64
}

func newLoadTracker(nodes int, threshold float64) *loadTracker {
	return &loadTracker{load: make([]float64, nodes), max1Node: -1, threshold: threshold}
}

// wouldOverload reports whether adding cost to node n would violate the
// threshold rule relative to the next most loaded node.
func (lt *loadTracker) wouldOverload(n mesh.NodeID, cost float64) bool {
	next := lt.max1
	if int(n) == lt.max1Node {
		next = lt.max2
	}
	if next <= 0 {
		next = cost // bootstrapping: compare against the work itself
	}
	return lt.load[n]+cost > (1+lt.threshold)*next
}

// add charges cost to node n.
func (lt *loadTracker) add(n mesh.NodeID, cost float64) {
	lt.load[n] += cost
	switch {
	case int(n) == lt.max1Node:
		lt.max1 = lt.load[n]
	case lt.load[n] > lt.max1:
		lt.max2 = lt.max1
		lt.max1 = lt.load[n]
		lt.max1Node = int(n)
	case lt.load[n] > lt.max2:
		lt.max2 = lt.load[n]
	}
}

// Imbalance returns max/mean node load, a workload-balance diagnostic.
func (lt *loadTracker) Imbalance() float64 {
	var sum float64
	for _, v := range lt.load {
		sum += v
	}
	if sum == 0 {
		return 1
	}
	return lt.max1 / (sum / float64(len(lt.load)))
}

// place assigns the analyzed plan's tasks to nodes under load balancing and
// records each one's fetched lines and their IDs in the scratch; an
// emitting pass also builds the Task objects with their fetches and tree
// arcs, and tallies the offloaded ops. It only reads the plan, which other
// passes may share. It returns the extra data movement incurred by
// load-balancing hoists.
//
// Vertices that perform no ops are folded into their parent's fetches: their
// lines travel as ordinary cache requests. A vertex whose node fails the
// load-balance check is hoisted: its ops execute at the parent vertex's node
// instead, and its lines are fetched individually across the connecting edge
// (costing (inputs-1) * edge weight extra movement, since the partial no
// longer collapses to one transfer).
func (p *pass) place(plan *StatementPlan, an *PlanAnalysis, ps *stmtPre, stmtIdx, iter, window int) int {
	sc := &p.sc
	sc.placed = sc.placed[:0]
	sc.lines = sc.lines[:0]
	sc.ids = sc.ids[:0]
	if p.sched != nil {
		if cap(sc.taskOf) < len(plan.Vertices) {
			sc.taskOf = make([]*Task, len(plan.Vertices))
		} else {
			sc.taskOf = sc.taskOf[:len(plan.Vertices)]
			clear(sc.taskOf)
		}
	}
	extraMovement := 0

	for _, v := range an.PostOrder {
		ops := an.OpsAt[v]
		isRoot := v == plan.Root
		if ops == 0 && !isRoot {
			continue // pure data vertex: parent fetches its lines directly
		}
		node := plan.Vertices[v].Node
		cost := float64(ops) * ps.opWeight
		if !isRoot && cost > 0 && p.lt.wouldOverload(node, cost) {
			parent := an.Parent[v]
			pnode := plan.Vertices[parent].Node
			if pnode != node && !p.lt.wouldOverload(pnode, cost) {
				node = pnode
				inputs := len(plan.Vertices[v].Lines) + len(an.Children[v])
				if inputs > 1 {
					extraMovement += (inputs - 1) * an.EdgeUp[v]
				}
			}
		}
		// The task fetches its own vertex's lines, then those of every
		// child that runs no task of its own (children with ops precede
		// it in post-order and send their partials over a sync arc).
		pt := placedTask{id: p.tasks, node: node, lo: len(sc.lines)}
		sc.lines = append(sc.lines, plan.Vertices[v].Lines...)
		sc.ids = append(sc.ids, plan.Vertices[v].LineIDs...)
		for _, c := range an.Children[v] {
			if an.OpsAt[c] == 0 {
				sc.lines = append(sc.lines, plan.Vertices[c].Lines...)
				sc.ids = append(sc.ids, plan.Vertices[c].LineIDs...)
			}
		}
		pt.hi = len(sc.lines)
		if p.sched != nil {
			t := &Task{
				ID:     pt.id,
				Node:   node,
				Ops:    cost,
				IsRoot: isRoot,
				Stmt:   stmtIdx,
				Iter:   iter,
				Window: window,
			}
			if pt.hi > pt.lo {
				t.Fetches = make([]Fetch, 0, pt.hi-pt.lo)
			}
			t.Fetches = appendVertexFetches(t.Fetches, plan, v, node)
			for _, c := range an.Children[v] {
				if ct := sc.taskOf[c]; ct != nil {
					t.addWait(ct.ID, p.dt.Between(ct.Node, node))
					p.sched.SyncsBefore++
					continue
				}
				t.Fetches = appendVertexFetches(t.Fetches, plan, c, node)
			}
			p.sched.Tasks = append(p.sched.Tasks, t)
			sc.taskOf[v] = t
			pt.task = t
			// Table 3 tallies the ops re-mapped off the root.
			if !isRoot && ps.ops > 0 {
				for c, n := range ps.mix {
					if share := n * ops / ps.ops; share > 0 {
						p.offload[c] += share
					}
				}
			}
		}
		p.lt.add(node, cost)
		p.tasks++
		sc.placed = append(sc.placed, pt)
	}
	return extraMovement
}

// appendVertexFetches appends the line accesses vertex v contributes to a
// task on taskNode: one per resident line, flagged with its service level.
// ReusedLines promised an L1 copy at the vertex's planned node; when the
// consuming task runs elsewhere (load-balance hoist, or a pure data vertex
// folded into a parent on another node) the hit claim does not transfer —
// the line must travel from the planned node — so L1Hit is only kept when
// the task node matches. The pass re-marks genuine hits against the
// consuming node's shadow L1 afterwards.
func appendVertexFetches(dst []Fetch, plan *StatementPlan, v int, taskNode mesh.NodeID) []Fetch {
	pv := plan.Vertices[v]
	for _, line := range pv.Lines {
		dst = append(dst, Fetch{
			From:   pv.Node,
			Line:   line,
			L2Miss: containsLine(pv.MissLines, line),
			L1Hit:  taskNode == pv.Node && containsLine(pv.ReusedLines, line),
		})
	}
	return dst
}

func containsLine(lines []uint64, line uint64) bool {
	for _, l := range lines {
		if l == line {
			return true
		}
	}
	return false
}

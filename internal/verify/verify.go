// Package verify is the static dependence-preservation verifier for emitted
// task DAGs: given the IR of a loop nest and a schedule produced by the
// partitioner (or a baseline placement), it proves — or refutes with a
// concrete counterexample — that every data dependence between statement
// instances is ordered by the schedule's WaitFor reachability combined with
// per-node program order.
//
// The happens-before relation it checks is exactly the one the rest of the
// system executes: the simulator visits tasks in ID order and serializes
// tasks sharing a node, and the generated per-node programs preserve the
// same order; across nodes only WaitFor arcs order tasks. The verifier
// builds one chain-decomposed reachability index over that relation
// (BuildClosure, backed by internal/reach — linear in tasks times the mesh
// nodes in use, so full-size schedules verify without a task cap),
// enumerates instance-level accesses from the affine/indirect access
// functions in internal/ir exactly the way the emitters resolve them (same
// address arithmetic, same fallback anchoring, and the emitter's own
// first-touch page table), and then replays the schedule's fetches and
// stores at cache-line granularity checking every RAW, WAR and WAW pair
// against the closure.
//
// The analyses that do not need each other run side by side on the worker
// pool (internal/par): structural validation with the closure build, the
// instance and bounds checks, and the race replay. The replay cannot wait
// for the closure, so it asks a speculative oracle that answers from
// per-node program order or a direct WaitFor arc and assumes every other
// pair ordered; the closure then confirms the assumed pairs, and any
// refutation re-runs the replay on the closure. The findings merge in the
// serial order, so reports are identical at any GOMAXPROCS.
//
// On top of the race check it performs the analyses only a static pass can:
// deadlock-freedom of the wait graph, sync-sufficiency (WaitFor arcs already
// implied by the remaining arc structure, cross-validating
// core.ReduceSyncs), affine out-of-bounds detection against declared array
// extents, instance completeness (every required operand line is fetched by
// some task of the instance; the root stores the line the IR writes), and
// coherence checking: the replay models write-invalidate L1s, and an L1 hit
// served by a copy a store has killed (or that the model never saw created)
// is a Violation, not an advisory.
package verify

import (
	"fmt"
	"slices"

	"dmacp/internal/addrmap"
	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/par"
)

// Input bundles what one Check run inspects.
type Input struct {
	// Schedule and Mesh are required: the task DAG under test and the
	// platform its nodes/hops refer to.
	Schedule *core.Schedule
	Mesh     *mesh.Mesh

	// Faults, when set, marks the schedule as targeting a degraded mesh:
	// structural validation then requires usable nodes and fault-aware
	// (live-route) hop counts instead of Manhattan distances. The dependence
	// checks are unaffected — ordering is topology-independent.
	Faults *mesh.FaultSet

	// Prog, Nest, Store, Layout and Translations enable the IR-level checks
	// (dependence enumeration, completeness, bounds). Store must be in the
	// same pre-execution state the emitter saw, since it resolves indirect
	// subscripts; Translations is the emitter's first-touch page table
	// (core.Result.Translations / baseline.Result.Translations) — address
	// translation is allocation-order dependent and cannot be replayed
	// independently. With Prog nil, Check still performs the schedule-only
	// checks (structure, deadlock, races between scheduled accesses,
	// sync-sufficiency).
	Prog         *ir.Program
	Nest         *ir.Nest
	Store        *ir.Store
	Layout       addrmap.Layout
	Translations map[uint64]uint64

	// Labels optionally names lines ("B[24]") in diagnostics.
	Labels map[uint64]string

	// Completed, when set, marks statement instances that finished before a
	// mid-run fault checkpoint: the instance-level completeness checks skip
	// them, since their accesses are deliberately absent from the residual
	// schedule under test. Races among the residual tasks are still checked
	// in full — completed work is ordered by time, before everything
	// residual, so no cross-checkpoint pair can race.
	Completed func(iter, stmt int) bool
}

// PartitionInput is the Input for a partitioner result on the platform of
// opts: the schedule checks against the nest it was emitted over (the fused
// body when fusion merged statements), replaying the partitioner's page
// table and line labels.
func PartitionInput(prog *ir.Program, store *ir.Store, r *core.Result, opts core.Options) Input {
	return Input{
		Prog: prog, Nest: r.ScheduleNest(), Store: store,
		Schedule: r.Schedule, Mesh: opts.Mesh, Layout: opts.Layout,
		Translations: r.Translations, Labels: r.LineLabels,
	}
}

// Checker turns in into a repair gate: each candidate schedule is checked in
// place of in.Schedule with default Options and rejected on any violation.
func Checker(in Input) core.RepairChecker {
	return func(s *core.Schedule) error {
		in.Schedule = s
		rep, err := Check(in, Options{})
		if err != nil {
			return err
		}
		return rep.Err()
	}
}

// Options tunes a Check run. The zero value means defaults.
type Options struct {
	// MaxDiagnostics caps how many diagnostics of each severity the report
	// retains (counts keep running past the cap). Default 16.
	MaxDiagnostics int
}

func (o Options) withDefaults() Options {
	if o.MaxDiagnostics <= 0 {
		o.MaxDiagnostics = 16
	}
	return o
}

// noTask fills diagnostic task/instance fields that do not apply.
const noTask = -1

// Check runs the verifier. The returned error reports infrastructure
// problems (missing inputs); semantic findings land in the report, whose
// Err method turns violations into an error. There is no task-count
// refusal: the chain-decomposed closure handles production-size schedules,
// with maxClosureTasks only bounding the index's memory. One index serves
// every check, so a run costs O(tasks × used nodes) plus the accesses the
// instance enumeration and the race replay visit.
func Check(in Input, o Options) (*Report, error) {
	return check(in, o, maxClosureTasks)
}

// check is Check with the closure's soft memory bound as a parameter.
//
// Its parts run on the worker pool, each into its own sub-report, and merge
// in the serial order under the same caps. A part that panicked is re-run
// on the calling goroutine, where it panics as a serial run would; the race
// replay is re-run on the closure when the closure refutes an assumed
// answer. The redundancy check runs on the closure after the merge.
func check(in Input, o Options, closureTasks int) (*Report, error) {
	o = o.withDefaults()
	if in.Schedule == nil {
		return nil, fmt.Errorf("verify: nil schedule")
	}
	if in.Mesh == nil {
		return nil, fmt.Errorf("verify: nil mesh")
	}
	var parts [numParts]part
	// A recovered panic leaves its part's slot empty; the slot is refilled
	// below.
	_ = par.ForEach(0, numParts, func(i int) {
		parts[i] = runPart(in, o, closureTasks, i)
	})
	finish := func(i int) part {
		if parts[i].rep == nil {
			parts[i] = runPart(in, o, closureTasks, i)
		}
		return parts[i]
	}

	rep := &Report{Tasks: len(in.Schedule.Tasks), Instances: in.Schedule.Instances}
	structure := finish(partStructure)
	rep.merge(structure.rep, o.MaxDiagnostics)
	// A cycle means the schedule deadlocks; no order-based check is
	// possible, and a serial run stops here.
	hb := structure.hb
	if hb == nil {
		rep.addViolation(RaceDiagnostic{
			Kind: KindDeadlock, EarlierTask: noTask, LaterTask: noTask,
			Detail: fmt.Sprintf("wait graph has a cycle; tasks stuck: %v", structure.stuck),
		}, o.MaxDiagnostics)
		return rep, nil
	}
	rep.merge(finish(partInstances).rep, o.MaxDiagnostics)
	races := parts[partRaces]
	if races.rep == nil || !races.spec.confirmed(hb) {
		races.rep = &Report{}
		checkRaces(in, o, races.rep, hb.Ordered)
	}
	rep.merge(races.rep, o.MaxDiagnostics)
	checkRedundancy(in, o, rep, hb)
	return rep, nil
}

// The independent parts of a Check run, in the order their findings merge.
const (
	partStructure = iota
	partInstances
	partRaces
	numParts
)

// part is one part's outcome: its sub-report (nil until the part ran to the
// end) and, for the structure part, the closure or the tasks stuck on a
// cycle; for the races part, the speculation its replay answered from.
type part struct {
	rep   *Report
	hb    *Closure
	stuck []int
	spec  *speculation
}

// runPart runs part i of a Check run.
func runPart(in Input, o Options, closureTasks, i int) part {
	rep := &Report{}
	switch i {
	case partStructure:
		// A structurally broken schedule is still analyzed best-effort, so
		// the report can carry the deeper findings too.
		if err := core.ValidateScheduleOn(in.Schedule, in.Mesh, in.Faults); err != nil {
			rep.addViolation(RaceDiagnostic{
				Kind: KindStructural, EarlierTask: noTask, LaterTask: noTask,
				Detail: err.Error(),
			}, o.MaxDiagnostics)
		}
		// Happens-before closure over WaitFor arcs plus per-node program
		// order.
		hb, stuck := buildClosureBounded(in.Schedule.Tasks, true, closureTasks)
		return part{rep: rep, hb: hb, stuck: stuck}
	case partInstances:
		if in.Prog != nil && in.Nest != nil {
			checkInstances(in, o, rep)
			checkBounds(in, o, rep)
		}
		return part{rep: rep}
	default:
		spec := &speculation{tasks: in.Schedule.Tasks}
		checkRaces(in, o, rep, spec.ordered)
		return part{rep: rep, spec: spec}
	}
}

// speculation is the race replay's ordering oracle while the closure is
// still being built. It answers from what a single task already shows:
// per-node program order (a and b on one node, a first) or a direct WaitFor
// arc a -> b, both of which the closure orders. Any other pair it records and
// answers "ordered". On clean schedules nearly every query is answered
// directly and every recorded pair is ordered.
type speculation struct {
	tasks   []*core.Task
	assumed [][2]int
}

// ordered answers a happens-before query as Closure.Ordered would if the
// recorded pairs hold.
func (s *speculation) ordered(a, b int) bool {
	if a == b {
		return true
	}
	if n := len(s.tasks); a >= 0 && b >= 0 && a < n && b < n &&
		((a < b && s.tasks[a].Node == s.tasks[b].Node) || slices.Contains(s.tasks[b].WaitFor, a)) {
		return true
	}
	s.assumed = append(s.assumed, [2]int{a, b})
	return true
}

// confirmed reports whether hb orders every pair the speculation assumed.
// The race replay is a deterministic function of its query answers, so
// then its result equals a replay on hb.
func (s *speculation) confirmed(hb *Closure) bool {
	for _, q := range s.assumed {
		if !hb.Ordered(q[0], q[1]) {
			return false
		}
	}
	return true
}

// name labels a line for diagnostics.
func name(in Input, line uint64) string {
	if l, ok := in.Labels[line]; ok {
		return l
	}
	return fmt.Sprintf("line %#x", line)
}

// lineOf translates a virtual address through the emitter's page table and
// returns the physical line address.
func lineOf(in Input, va uint64) (uint64, bool) {
	pp, ok := in.Translations[in.Layout.PageIndex(va)]
	if !ok {
		return 0, false
	}
	return in.Layout.LineAddr(pp*in.Layout.PageBytes + va%in.Layout.PageBytes), true
}

// checkRaces replays the schedule's fetches and stores in task order at
// cache-line granularity and asks ordered (the closure's Ordered, or the
// speculation standing in for it) about every dependent pair:
// RAW (last writer ordered before each reader), WAR (every reader since the
// last write ordered before the next writer) and WAW (writers of one line
// ordered). Tracking one reader per (line, node) suffices because same-node
// predecessors are always ordered by per-node program order, which the
// closure includes.
//
// The copy model is write-invalidate, mirroring the emitters' shadow L1s:
// a store replaces the line's copy set with the writer's node alone, so an
// L1 hit on a written line is legitimate only when the replaying model
// holds a copy at the reader's node that postdates the latest write, or
// when the hit is a store-to-load forward — the fetch sources the writer's
// node and is ordered after the write, so the fresh line travels with the
// producer handshake (a cache-to-cache transfer) and refreshes the
// reader's copy. A hit with neither justification — killed by
// invalidation, or never created — would observe a stale value on
// coherent hardware and is a Violation.
func checkRaces(in Input, o Options, rep *Report, ordered func(a, b int) bool) {
	tasks := in.Schedule.Tasks
	lines := make(map[uint64]int32) // line -> index into states
	var states []lineState
	reported := make(map[[3]uint64]bool) // (earlier, later, line) dedup
	// firstReport records the pair and reports whether it is new.
	firstReport := func(a, b int, line uint64) bool {
		k := [3]uint64{uint64(a), uint64(b), line}
		if reported[k] {
			return false
		}
		reported[k] = true
		return true
	}
	// stateOf returns the line's record; the pointer stays valid until the
	// next stateOf call.
	stateOf := func(line uint64) *lineState {
		i, ok := lines[line]
		if !ok {
			i = int32(len(states))
			lines[line] = i
			states = append(states, lineState{})
		}
		return &states[i]
	}
	diag := func(kind Kind, earlier, later *core.Task, line uint64, detail string) RaceDiagnostic {
		return RaceDiagnostic{
			Kind:        kind,
			EarlierTask: earlier.ID, LaterTask: later.ID,
			EarlierIter: earlier.Iter, EarlierStmt: earlier.Stmt,
			LaterIter: later.Iter, LaterStmt: later.Stmt,
			EarlierNode: int(earlier.Node), LaterNode: int(later.Node),
			Array: name(in, line), Line: line,
			Detail: detail,
		}
	}

	for _, t := range tasks {
		node := int(t.Node)
		for _, f := range t.Fetches {
			st := stateOf(f.Line)
			if w := st.writer; st.written && w != t.ID {
				rep.DepsChecked++
				if !ordered(w, t.ID) && firstReport(w, t.ID, f.Line) {
					rep.addViolation(diag(KindRAW, tasks[w], t, f.Line,
						"flow dependence unordered: no wait path from the write to the read"), o.MaxDiagnostics)
				}
				if f.L1Hit {
					c, okc := lookup(st.copies, node)
					switch {
					case okc && c >= w:
						// Local reuse: the node's copy postdates the write.
					case f.From == tasks[w].Node && ordered(w, t.ID):
						// Store-to-load forwarding: the fetch sources the
						// writer's node — where the only post-invalidation copy
						// lives — and is ordered after the write, so the fresh
						// line rides the producer handshake into this node's L1.
						st.copies = record(st.copies, node, t.ID)
					case firstReport(w, t.ID, f.Line):
						detail := fmt.Sprintf("L1 hit but the write invalidated the node's copy; a coherent machine would refetch (write by task %d)", w)
						if okc {
							detail = fmt.Sprintf("L1 copy created by task %d predates the write; a coherent machine would refetch", c)
						}
						rep.addViolation(diag(KindStaleReuse, tasks[w], t, f.Line, detail), o.MaxDiagnostics)
					}
				}
			}
			st.readers = record(st.readers, node, t.ID)
			// A real fetch refreshes the node's copy; an L1 hit keeps
			// whatever vintage the copy already had.
			if _, okc := lookup(st.copies, node); !f.L1Hit || !okc {
				st.copies = record(st.copies, node, t.ID)
			}
		}
		if !t.IsRoot {
			continue
		}
		line := t.ResultLine
		st := stateOf(line)
		if w := st.writer; st.written && w != t.ID {
			rep.DepsChecked++
			if !ordered(w, t.ID) && firstReport(w, t.ID, line) {
				rep.addViolation(diag(KindWAW, tasks[w], t, line,
					"output dependence unordered: two stores to the line race"), o.MaxDiagnostics)
			}
		}
		// The reader set is sorted by node, so reports come out in
		// ascending node order.
		for _, r := range st.readers {
			if r.task == t.ID {
				continue
			}
			rep.DepsChecked++
			if !ordered(r.task, t.ID) && firstReport(r.task, t.ID, line) {
				rep.addViolation(diag(KindWAR, tasks[r.task], t, line,
					"anti dependence unordered: the store can overtake the read"), o.MaxDiagnostics)
			}
		}
		st.readers = st.readers[:0]
		st.written, st.writer = true, t.ID
		// Write-invalidate: the store leaves exactly one valid copy of the
		// line — the writer's node.
		st.copies = append(st.copies[:0], nodeTask{node, t.ID})
	}
}

// lineState is the race replay's record of one line: its latest writer,
// the last reader on each node since that write, and the nodes holding an
// L1 copy with the task that created each. Both node lists are sorted by
// node.
type lineState struct {
	written         bool
	writer          int
	readers, copies []nodeTask
}

// nodeTask pairs a mesh node with a task.
type nodeTask struct{ node, task int }

// lookup returns the task recorded for node in the sorted list.
func lookup(list []nodeTask, node int) (int, bool) {
	for _, e := range list {
		if e.node >= node {
			return e.task, e.node == node
		}
	}
	return 0, false
}

// record sets node's task in the sorted list, inserting it in order.
func record(list []nodeTask, node, task int) []nodeTask {
	i := 0
	for i < len(list) && list[i].node < node {
		i++
	}
	if i < len(list) && list[i].node == node {
		list[i].task = task
		return list
	}
	list = append(list, nodeTask{})
	copy(list[i+1:], list[i:])
	list[i] = nodeTask{node, task}
	return list
}

// refView is the iteration-independent view of one reference that
// checkInstances caches: its array and its compiled subscript. It is the
// verifier's own cache, deliberately not shared with the emitters' locator,
// so the oracle resolves addresses independently.
type refView struct {
	ref *ir.Ref
	arr *ir.Array
	sub ir.Subscript
}

func viewOf(prog *ir.Program, ref *ir.Ref) refView {
	return refView{ref: ref, arr: prog.Array(ref.Array), sub: prog.CompileSubscript(ref)}
}

// addr resolves the reference's virtual address under env, as Prog.AddrOf
// does, from the cached subscript.
func (v *refView) addr(env map[string]int, store *ir.Store) (uint64, error) {
	if v.arr == nil {
		return 0, fmt.Errorf("ir: unknown array %q", v.ref.Array)
	}
	idx, err := v.sub.Index(env, store)
	if err != nil {
		return 0, err
	}
	return v.arr.AddrOfIndex(idx), nil
}

// checkInstances enumerates each statement instance's accesses from the IR
// — resolving subscripts the way the emitters do (a compiled ir.Subscript
// per reference, ir.Array.AddrOfIndex, the same fallback anchoring),
// through the emitter's own page table — and checks the
// schedule carries them: every required operand line is fetched by some task
// of the instance, and the instance's root stores the line the IR writes.
func checkInstances(in Input, o Options, rep *Report) {
	body := in.Nest.Body
	m := len(body)
	if m == 0 {
		return
	}
	instances := in.Nest.Iterations() * m
	// Per-instance fetched lines (CSR over the dense instance index) and
	// roots; tasks naming an instance outside the nest are never asked for.
	inst := func(t *core.Task) int {
		if t.Stmt < 0 || t.Stmt >= m || t.Iter < 0 || t.Iter >= instances/m {
			return -1
		}
		return t.Iter*m + t.Stmt
	}
	start := make([]int32, instances+1)
	rootOf := make([]*core.Task, instances)
	for _, t := range in.Schedule.Tasks {
		if k := inst(t); k >= 0 {
			start[k+1] += int32(len(t.Fetches))
			if t.IsRoot {
				rootOf[k] = t
			}
		}
	}
	for k := 0; k < instances; k++ {
		start[k+1] += start[k]
	}
	fetched := make([]uint64, start[instances])
	fill := append([]int32(nil), start[:instances]...)
	for _, t := range in.Schedule.Tasks {
		if k := inst(t); k >= 0 {
			for _, f := range t.Fetches {
				fetched[fill[k]] = f.Line
				fill[k]++
			}
		}
	}
	fetches := func(k int, line uint64) bool {
		for _, l := range fetched[start[k]:start[k+1]] {
			if l == line {
				return true
			}
		}
		return false
	}

	// The value operands are the nested-set leaves — exactly what the
	// partitioner plans fetches for (inner indirect-subscript references
	// resolve addresses but are not themselves fetched). Leaf sets, output
	// views and array base lines are iteration-independent.
	type stmtView struct {
		lhs      refView
		baseLine uint64
		baseOK   bool
		leaves   []refView
	}
	views := make([]stmtView, m)
	for si, stmt := range body {
		sv := &views[si]
		sv.lhs = viewOf(in.Prog, stmt.LHS)
		if sv.lhs.arr != nil {
			sv.baseLine, sv.baseOK = lineOf(in, sv.lhs.arr.Base)
		}
		for _, ref := range ir.NestedSets(stmt.RHS).Leaves(nil) {
			sv.leaves = append(sv.leaves, viewOf(in.Prog, ref))
		}
	}

	var env map[string]int
	for k := 0; k < instances; k++ {
		iter := k / m
		si := k % m
		if si == 0 {
			env = in.Nest.IterationEnvInto(env, iter)
		}
		if in.Completed != nil && in.Completed(iter, si) {
			continue // finished before the checkpoint; not in the residual
		}
		sv := &views[si]

		// The write: unresolvable outputs anchor at the array base, exactly
		// the emitters' documented fallback.
		var writeLine uint64
		if sv.lhs.arr == nil {
			rep.addViolation(RaceDiagnostic{
				Kind: KindStructural, EarlierTask: noTask, LaterTask: noTask,
				LaterIter: iter, LaterStmt: si,
				Detail: fmt.Sprintf("statement %d writes undeclared array %s", si, sv.lhs.ref.Array),
			}, o.MaxDiagnostics)
			continue
		}
		if va, err := sv.lhs.addr(env, in.Store); err == nil {
			line, ok := lineOf(in, va)
			if !ok {
				rep.addViolation(RaceDiagnostic{
					Kind: KindStructural, EarlierTask: noTask, LaterTask: noTask,
					LaterIter: iter, LaterStmt: si,
					Detail: fmt.Sprintf("iter %d stmt %d: output %s resolves to va %#x on a page the emitter never translated", iter, si, sv.lhs.ref.Array, va),
				}, o.MaxDiagnostics)
				continue
			}
			writeLine = line
		} else {
			if !sv.baseOK {
				continue
			}
			rep.addWarning(RaceDiagnostic{
				Kind: KindUnresolved, EarlierTask: noTask, LaterTask: noTask,
				LaterIter: iter, LaterStmt: si,
				Detail: fmt.Sprintf("iter %d stmt %d: output %s unresolvable (%v); anchored at array base", iter, si, sv.lhs.ref.Array, err),
			}, o.MaxDiagnostics)
			writeLine = sv.baseLine
		}

		for li := range sv.leaves {
			leaf := &sv.leaves[li]
			line := writeLine // unresolvable operands anchor at the write
			va, err := leaf.addr(env, in.Store)
			if err != nil {
				rep.addWarning(RaceDiagnostic{
					Kind: KindUnresolved, EarlierTask: noTask, LaterTask: noTask,
					LaterIter: iter, LaterStmt: si,
					Detail: fmt.Sprintf("iter %d stmt %d: %v; emitter fallback anchoring assumed", iter, si, err),
				}, o.MaxDiagnostics)
			} else {
				var ok bool
				if line, ok = lineOf(in, va); !ok {
					rep.addViolation(RaceDiagnostic{
						Kind: KindStructural, EarlierTask: noTask, LaterTask: noTask,
						LaterIter: iter, LaterStmt: si,
						Detail: fmt.Sprintf("iter %d stmt %d: %s resolves to va %#x on a page the emitter never translated", iter, si, leaf.ref.Array, va),
					}, o.MaxDiagnostics)
					continue
				}
			}
			if !fetches(k, line) {
				rep.addViolation(RaceDiagnostic{
					Kind: KindMissingFetch, EarlierTask: noTask, LaterTask: noTask,
					LaterIter: iter, LaterStmt: si,
					Array: name(in, line), Line: line,
					Detail: fmt.Sprintf("iter %d stmt %d reads %s(%s) but no task of the instance fetches %s", iter, si, leaf.ref.Array, subscriptString(leaf.ref), name(in, line)),
				}, o.MaxDiagnostics)
			}
		}

		root := rootOf[k]
		if root == nil {
			rep.addViolation(RaceDiagnostic{
				Kind: KindStructural, EarlierTask: noTask, LaterTask: noTask,
				LaterIter: iter, LaterStmt: si,
				Detail: fmt.Sprintf("instance (iter %d, stmt %d) has no root task", iter, si),
			}, o.MaxDiagnostics)
			continue
		}
		if root.ResultLine != writeLine {
			rep.addViolation(RaceDiagnostic{
				Kind: KindWrongResult, EarlierTask: root.ID, LaterTask: root.ID,
				EarlierIter: iter, EarlierStmt: si, LaterIter: iter, LaterStmt: si,
				EarlierNode: int(root.Node), LaterNode: int(root.Node),
				Array: name(in, writeLine), Line: writeLine,
				Detail: fmt.Sprintf("root stores %s but the IR writes %s", name(in, root.ResultLine), name(in, writeLine)),
			}, o.MaxDiagnostics)
		}
	}
}

// subscriptString renders a ref's subscript for diagnostics.
func subscriptString(ref *ir.Ref) string {
	if ref.Index == nil {
		return ""
	}
	if a, ok := ir.SubscriptOf(ref); ok {
		return a.String()
	}
	return "<indirect>"
}

// checkRedundancy flags WaitFor arcs the remaining arcs already imply: an
// arc p -> t is redundant when another producer q of t is reachable from p
// along WaitFor arcs alone, or duplicates p outright. This is the
// sync-sufficiency view that cross-validates core.ReduceSyncs — removing a
// flagged arc can never change the partial order.
//
// Arc-only reachability is answered by walks over WaitFor lists, started
// only from tasks with two or more producers, and pruned by hb: arcs are a
// subset of happens-before, so a vertex hb does not order after p cannot
// lie on an arc path from p.
func checkRedundancy(in Input, o Options, rep *Report, hb *Closure) {
	tasks := in.Schedule.Tasks
	var seen []int32 // walk stamps, allocated on the first walk
	var stamp int32
	var stack []int
	// arcPath reports whether WaitFor arcs lead from p to q (p != q),
	// walking back from q over producers hb orders after p.
	arcPath := func(p, q int) bool {
		n := len(tasks)
		if p < 0 || p >= n || q < 0 || q >= n || !hb.Ordered(p, q) {
			return false
		}
		if seen == nil {
			seen = make([]int32, n)
		}
		stamp++
		seen[q] = stamp
		stack = append(stack[:0], q)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range tasks[u].WaitFor {
				if v < 0 || v >= n || v == u {
					continue // ignored by the closure as well
				}
				if v == p {
					return true
				}
				if seen[v] != stamp && hb.Ordered(p, v) {
					seen[v] = stamp
					stack = append(stack, v)
				}
			}
		}
		return false
	}
	for _, t := range tasks {
		if len(t.WaitFor) < 2 {
			continue
		}
		for i, p := range t.WaitFor {
			red := false
			for j, q := range t.WaitFor {
				if j == i {
					continue
				}
				if (p == q && j > i) || (p != q && arcPath(p, q)) {
					red = true
					break
				}
			}
			if red {
				rep.RedundantArcs++
				rep.addWarning(RaceDiagnostic{
					Kind: KindRedundantArc, EarlierTask: p, LaterTask: t.ID,
					EarlierIter: tasks[p].Iter, EarlierStmt: tasks[p].Stmt,
					LaterIter: t.Iter, LaterStmt: t.Stmt,
					EarlierNode: int(tasks[p].Node), LaterNode: int(t.Node),
					Detail: "arc already implied by the remaining wait structure",
				}, o.MaxDiagnostics)
			}
		}
	}
}

// checkBounds analyzes every affine subscript's range over the nest's loop
// bounds against the declared array extent. Accesses wrap modulo the extent
// (ir.Array.AddrOfIndex), so an excursion is an advisory finding, not a
// race — but it almost always means the kernel addresses a different element
// than its author intended.
func checkBounds(in Input, o Options, rep *Report) {
	bounds := ir.NestBounds(in.Nest)
	for si, stmt := range in.Nest.Body {
		for _, ref := range stmt.AllRefs() {
			arr := in.Prog.Array(ref.Array)
			if arr == nil || arr.Len <= 0 {
				continue // loop-variable pseudo-ref or undeclared
			}
			aff, ok := ir.SubscriptOf(ref)
			if !ok {
				continue // indirect/nonlinear: runtime-dependent
			}
			lo, hi := aff.Const, aff.Const
			// Integer interval accumulation commutes: lo/hi are sums of
			// per-variable terms, so iteration order cannot reach the
			// report.
			//lint:dmacp-allow maporder commutative int accumulation; order never leaves the loop
			for v, c := range aff.Coeffs {
				b := bounds[v]
				if c >= 0 {
					lo += c * b.Lo
					hi += c * b.Hi
				} else {
					lo += c * b.Hi
					hi += c * b.Lo
				}
			}
			if lo < 0 || hi >= arr.Len {
				rep.addWarning(RaceDiagnostic{
					Kind: KindOutOfBounds, EarlierTask: noTask, LaterTask: noTask,
					LaterStmt: si,
					Array:     ref.Array,
					Detail: fmt.Sprintf("stmt %d: %s(%s) ranges over [%d, %d] but the extent is %d; accesses wrap modulo the extent",
						si, ref.Array, aff.String(), lo, hi, arr.Len),
				}, o.MaxDiagnostics)
			}
		}
	}
}

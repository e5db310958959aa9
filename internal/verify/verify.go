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
// builds a chain-decomposed reachability index over that relation
// (BuildClosure, backed by internal/reach — linear in tasks times chains,
// so full-size schedules verify without a task cap), enumerates
// instance-level accesses from the affine/indirect
// access functions in internal/ir exactly the way the emitters resolve them
// (same AddrOf calls, same fallback anchoring, and the emitter's own
// first-touch page table), and then replays the schedule's fetches and
// stores at cache-line granularity checking every RAW, WAR and WAW pair
// against the closure.
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

	"dmacp/internal/addrmap"
	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
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
	// MaxClosureTasks is a soft memory bound on the reachability index: it
	// is converted into an indexed-chain budget equal to what the old
	// ancestor-bitset closure would have spent at that many tasks (n²/8
	// bytes). Schedules of any size are accepted — queries past the budget
	// fall back to an on-demand BFS, trading time, never correctness.
	// Default 20000 (~50 MB of chain labels).
	MaxClosureTasks int
}

func (o Options) withDefaults() Options {
	if o.MaxDiagnostics <= 0 {
		o.MaxDiagnostics = 16
	}
	if o.MaxClosureTasks <= 0 {
		o.MaxClosureTasks = 20000
	}
	return o
}

// noTask fills diagnostic task/instance fields that do not apply.
const noTask = -1

// Check runs the verifier. The returned error reports infrastructure
// problems (missing inputs); semantic findings land in the report, whose
// Err method turns violations into an error. There is no task-count
// refusal: the chain-decomposed closure handles production-size schedules,
// with MaxClosureTasks only bounding the index's memory.
func Check(in Input, o Options) (*Report, error) {
	o = o.withDefaults()
	if in.Schedule == nil {
		return nil, fmt.Errorf("verify: nil schedule")
	}
	if in.Mesh == nil {
		return nil, fmt.Errorf("verify: nil mesh")
	}
	tasks := in.Schedule.Tasks

	rep := &Report{Tasks: len(tasks), Instances: in.Schedule.Instances}

	// Structural invariants first; a structurally broken schedule is still
	// analyzed best-effort so the report can carry the deeper findings too.
	if err := core.ValidateScheduleOn(in.Schedule, in.Mesh, in.Faults); err != nil {
		rep.addViolation(RaceDiagnostic{
			Kind: KindStructural, EarlierTask: noTask, LaterTask: noTask,
			Detail: err.Error(),
		}, o.MaxDiagnostics)
	}

	// Happens-before closure over WaitFor arcs plus per-node program order.
	// A cycle means the schedule deadlocks; no order-based check is possible.
	hb, stuck := buildClosureBounded(tasks, true, o.MaxClosureTasks)
	if hb == nil {
		rep.addViolation(RaceDiagnostic{
			Kind: KindDeadlock, EarlierTask: noTask, LaterTask: noTask,
			Detail: fmt.Sprintf("wait graph has a cycle; tasks stuck: %v", stuck),
		}, o.MaxDiagnostics)
		return rep, nil
	}

	if in.Prog != nil && in.Nest != nil {
		checkInstances(in, o, rep)
		checkBounds(in, o, rep)
	}
	checkRaces(in, o, rep, hb)
	checkRedundancy(in, o, rep)
	return rep, nil
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
// cache-line granularity and queries the closure for every dependent pair:
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
func checkRaces(in Input, o Options, rep *Report, hb *Closure) {
	tasks := in.Schedule.Tasks
	lastWrite := make(map[uint64]int)       // line -> writer task
	readers := make(map[uint64]map[int]int) // line -> node -> last reader task
	copies := make(map[uint64]map[int]int)  // line -> node -> task that created the L1 copy
	reported := make(map[[3]uint64]bool)    // (earlier, later, line) dedup
	pair := func(a, b int, line uint64) [3]uint64 {
		return [3]uint64{uint64(a), uint64(b), line}
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
		for _, f := range t.Fetches {
			if w, ok := lastWrite[f.Line]; ok && w != t.ID {
				rep.DepsChecked++
				if !hb.Ordered(w, t.ID) && !reported[pair(w, t.ID, f.Line)] {
					reported[pair(w, t.ID, f.Line)] = true
					rep.addViolation(diag(KindRAW, tasks[w], t, f.Line,
						"flow dependence unordered: no wait path from the write to the read"), o.MaxDiagnostics)
				}
				if f.L1Hit {
					c, okc := copies[f.Line][int(t.Node)]
					switch {
					case okc && c >= w:
						// Local reuse: the node's copy postdates the write.
					case f.From == tasks[w].Node && hb.Ordered(w, t.ID):
						// Store-to-load forwarding: the fetch sources the
						// writer's node — where the only post-invalidation copy
						// lives — and is ordered after the write, so the fresh
						// line rides the producer handshake into this node's L1.
						if copies[f.Line] == nil {
							copies[f.Line] = make(map[int]int)
						}
						copies[f.Line][int(t.Node)] = t.ID
					case !reported[pair(w, t.ID, f.Line)]:
						reported[pair(w, t.ID, f.Line)] = true
						detail := fmt.Sprintf("L1 hit but the write invalidated the node's copy; a coherent machine would refetch (write by task %d)", w)
						if okc {
							detail = fmt.Sprintf("L1 copy created by task %d predates the write; a coherent machine would refetch", c)
						}
						rep.addViolation(diag(KindStaleReuse, tasks[w], t, f.Line, detail), o.MaxDiagnostics)
					}
				}
			}
			if readers[f.Line] == nil {
				readers[f.Line] = make(map[int]int)
			}
			readers[f.Line][int(t.Node)] = t.ID
			if !f.L1Hit {
				// A real fetch refreshes the node's copy; an L1 hit keeps
				// whatever vintage the copy already had.
				if copies[f.Line] == nil {
					copies[f.Line] = make(map[int]int)
				}
				copies[f.Line][int(t.Node)] = t.ID
			} else if _, okc := copies[f.Line][int(t.Node)]; !okc {
				if copies[f.Line] == nil {
					copies[f.Line] = make(map[int]int)
				}
				copies[f.Line][int(t.Node)] = t.ID
			}
		}
		if !t.IsRoot {
			continue
		}
		line := t.ResultLine
		if w, ok := lastWrite[line]; ok && w != t.ID {
			rep.DepsChecked++
			if !hb.Ordered(w, t.ID) && !reported[pair(w, t.ID, line)] {
				reported[pair(w, t.ID, line)] = true
				rep.addViolation(diag(KindWAW, tasks[w], t, line,
					"output dependence unordered: two stores to the line race"), o.MaxDiagnostics)
			}
		}
		// Scan reader nodes in ascending order for deterministic reports.
		if rs := readers[line]; len(rs) > 0 {
			for n := 0; n < in.Mesh.Nodes(); n++ {
				r, ok := rs[n]
				if !ok || r == t.ID {
					continue
				}
				rep.DepsChecked++
				if !hb.Ordered(r, t.ID) && !reported[pair(r, t.ID, line)] {
					reported[pair(r, t.ID, line)] = true
					rep.addViolation(diag(KindWAR, tasks[r], t, line,
						"anti dependence unordered: the store can overtake the read"), o.MaxDiagnostics)
				}
			}
		}
		delete(readers, line)
		lastWrite[line] = t.ID
		// Write-invalidate: the store leaves exactly one valid copy of the
		// line — the writer's node.
		copies[line] = map[int]int{int(t.Node): t.ID}
	}
}

// checkInstances enumerates each statement instance's accesses from the IR
// — resolving subscripts with the same AddrOf calls and fallback anchoring
// the emitters use, through the emitter's own page table — and checks the
// schedule carries them: every required operand line is fetched by some task
// of the instance, and the instance's root stores the line the IR writes.
func checkInstances(in Input, o Options, rep *Report) {
	body := in.Nest.Body
	m := len(body)
	if m == 0 {
		return
	}
	type instKey struct{ iter, stmt int }
	fetched := make(map[instKey]map[uint64]bool, in.Schedule.Instances)
	rootOf := make(map[instKey]*core.Task, in.Schedule.Instances)
	for _, t := range in.Schedule.Tasks {
		k := instKey{t.Iter, t.Stmt}
		if fetched[k] == nil {
			fetched[k] = make(map[uint64]bool, len(t.Fetches))
		}
		for _, f := range t.Fetches {
			fetched[k][f.Line] = true
		}
		if t.IsRoot {
			rootOf[k] = t
		}
	}

	// The value operands are the nested-set leaves — exactly what the
	// partitioner plans fetches for (inner indirect-subscript references
	// resolve addresses but are not themselves fetched); cached per
	// statement since the leaf set is iteration-independent.
	leavesOf := make([][]*ir.Ref, m)
	for si, stmt := range body {
		leavesOf[si] = ir.NestedSets(stmt.RHS).Leaves(nil)
	}

	instances := in.Nest.Iterations() * m
	var env map[string]int
	for k := 0; k < instances; k++ {
		iter := k / m
		si := k % m
		if si == 0 {
			env = in.Nest.IterationEnv(iter)
		}
		if in.Completed != nil && in.Completed(iter, si) {
			continue // finished before the checkpoint; not in the residual
		}
		stmt := body[si]
		key := instKey{iter, si}

		resolve := func(ref *ir.Ref, fallback uint64, haveFallback bool) (uint64, bool) {
			va, err := in.Prog.AddrOf(ref, env, in.Store)
			if err != nil {
				if !haveFallback {
					return 0, false
				}
				rep.addWarning(RaceDiagnostic{
					Kind: KindUnresolved, EarlierTask: noTask, LaterTask: noTask,
					LaterIter: iter, LaterStmt: si,
					Detail: fmt.Sprintf("iter %d stmt %d: %v; emitter fallback anchoring assumed", iter, si, err),
				}, o.MaxDiagnostics)
				return fallback, true
			}
			line, ok := lineOf(in, va)
			if !ok {
				rep.addViolation(RaceDiagnostic{
					Kind: KindStructural, EarlierTask: noTask, LaterTask: noTask,
					LaterIter: iter, LaterStmt: si,
					Detail: fmt.Sprintf("iter %d stmt %d: %s resolves to va %#x on a page the emitter never translated", iter, si, ref.Array, va),
				}, o.MaxDiagnostics)
				return 0, false
			}
			return line, true
		}

		// The write: unresolvable outputs anchor at the array base, exactly
		// the emitters' documented fallback.
		var writeLine uint64
		arr := in.Prog.Array(stmt.LHS.Array)
		if arr == nil {
			rep.addViolation(RaceDiagnostic{
				Kind: KindStructural, EarlierTask: noTask, LaterTask: noTask,
				LaterIter: iter, LaterStmt: si,
				Detail: fmt.Sprintf("statement %d writes undeclared array %s", si, stmt.LHS.Array),
			}, o.MaxDiagnostics)
			continue
		}
		baseLine, baseOK := lineOf(in, arr.Base)
		if va, err := in.Prog.AddrOf(stmt.LHS, env, in.Store); err == nil {
			line, ok := lineOf(in, va)
			if !ok {
				rep.addViolation(RaceDiagnostic{
					Kind: KindStructural, EarlierTask: noTask, LaterTask: noTask,
					LaterIter: iter, LaterStmt: si,
					Detail: fmt.Sprintf("iter %d stmt %d: output %s resolves to va %#x on a page the emitter never translated", iter, si, stmt.LHS.Array, va),
				}, o.MaxDiagnostics)
				continue
			}
			writeLine = line
		} else {
			if !baseOK {
				continue
			}
			rep.addWarning(RaceDiagnostic{
				Kind: KindUnresolved, EarlierTask: noTask, LaterTask: noTask,
				LaterIter: iter, LaterStmt: si,
				Detail: fmt.Sprintf("iter %d stmt %d: output %s unresolvable (%v); anchored at array base", iter, si, stmt.LHS.Array, err),
			}, o.MaxDiagnostics)
			writeLine = baseLine
		}

		for _, ref := range leavesOf[si] {
			line, ok := resolve(ref, writeLine, true)
			if !ok {
				continue
			}
			if !fetched[key][line] {
				rep.addViolation(RaceDiagnostic{
					Kind: KindMissingFetch, EarlierTask: noTask, LaterTask: noTask,
					LaterIter: iter, LaterStmt: si,
					Array: name(in, line), Line: line,
					Detail: fmt.Sprintf("iter %d stmt %d reads %s(%s) but no task of the instance fetches %s", iter, si, ref.Array, subscriptString(ref), name(in, line)),
				}, o.MaxDiagnostics)
			}
		}

		root := rootOf[key]
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

// checkRedundancy flags WaitFor arcs the arc-only closure already implies:
// an arc p -> t is redundant when another producer q of t is (strictly)
// reachable from p, or duplicates p outright. This is the sync-sufficiency
// view that cross-validates core.ReduceSyncs — removing a flagged arc can
// never change the partial order.
func checkRedundancy(in Input, o Options, rep *Report) {
	arcHB, _ := buildClosureBounded(in.Schedule.Tasks, false, o.MaxClosureTasks)
	if arcHB == nil {
		return // cycle already reported as a deadlock by the caller
	}
	for _, t := range in.Schedule.Tasks {
		if len(t.WaitFor) < 2 {
			continue
		}
		for i, p := range t.WaitFor {
			red := false
			for j, q := range t.WaitFor {
				if j == i {
					continue
				}
				if (p == q && j > i) || (p != q && arcHB.Ordered(p, q)) {
					red = true
					break
				}
			}
			if red {
				rep.RedundantArcs++
				rep.addWarning(RaceDiagnostic{
					Kind: KindRedundantArc, EarlierTask: p, LaterTask: t.ID,
					EarlierIter: in.Schedule.Tasks[p].Iter, EarlierStmt: in.Schedule.Tasks[p].Stmt,
					LaterIter: t.Iter, LaterStmt: t.Stmt,
					EarlierNode: int(in.Schedule.Tasks[p].Node), LaterNode: int(t.Node),
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

// PartitionHook adapts Check to core.Options.Verify: install it to gate
// every Partition call behind the verifier.
//
//	opts.Verify = verify.PartitionHook(verify.Options{})
func PartitionHook(o Options) core.VerifyFunc {
	return func(prog *ir.Program, nest *ir.Nest, store *ir.Store, opts *core.Options, res *core.Result) error {
		rep, err := Check(PartitionInput(prog, store, res, *opts), o)
		if err != nil {
			return err
		}
		return rep.Err()
	}
}

package verify

import (
	"fmt"
	"sort"

	"dmacp/internal/core"
	"dmacp/internal/ir"
)

// referenceCheck is the verifier as it stood before the cost rework, kept as
// the test-only reference TestCheckMatchesReference compares Check against:
// a second, arc-only reachability index answers the redundancy check,
// subscripts are re-derived through Prog.AddrOf for every instance, and the
// race replay keeps per-line maps keyed by node. The only change from that
// version is the WAR scan's walk over the recorded reader nodes instead of
// 0..Mesh.Nodes()-1, which dropped readers on out-of-range nodes.
func referenceCheck(in Input, o Options) (*Report, error) {
	o = o.withDefaults()
	if in.Schedule == nil {
		return nil, fmt.Errorf("verify: nil schedule")
	}
	if in.Mesh == nil {
		return nil, fmt.Errorf("verify: nil mesh")
	}
	tasks := in.Schedule.Tasks

	rep := &Report{Tasks: len(tasks), Instances: in.Schedule.Instances}
	if err := core.ValidateScheduleOn(in.Schedule, in.Mesh, in.Faults); err != nil {
		rep.addViolation(RaceDiagnostic{
			Kind: KindStructural, EarlierTask: noTask, LaterTask: noTask,
			Detail: err.Error(),
		}, o.MaxDiagnostics)
	}
	hb, stuck := buildClosureBounded(tasks, true, maxClosureTasks)
	if hb == nil {
		rep.addViolation(RaceDiagnostic{
			Kind: KindDeadlock, EarlierTask: noTask, LaterTask: noTask,
			Detail: fmt.Sprintf("wait graph has a cycle; tasks stuck: %v", stuck),
		}, o.MaxDiagnostics)
		return rep, nil
	}
	if in.Prog != nil && in.Nest != nil {
		refCheckInstances(in, o, rep)
		checkBounds(in, o, rep)
	}
	refCheckRaces(in, o, rep, hb)
	refCheckRedundancy(in, o, rep)
	return rep, nil
}

// sortedNodes returns the reader nodes of one line in ascending order.
func sortedNodes(rs map[int]int) []int {
	ns := make([]int, 0, len(rs))
	for n := range rs {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	return ns
}

func refCheckRaces(in Input, o Options, rep *Report, hb *Closure) {
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
					case f.From == tasks[w].Node && hb.Ordered(w, t.ID):
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
		if rs := readers[line]; len(rs) > 0 {
			for _, n := range sortedNodes(rs) {
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
		copies[line] = map[int]int{int(t.Node): t.ID}
	}
}

func refCheckInstances(in Input, o Options, rep *Report) {
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
			continue
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

func refCheckRedundancy(in Input, o Options, rep *Report) {
	arcHB, _ := buildClosureBounded(in.Schedule.Tasks, false, maxClosureTasks)
	if arcHB == nil {
		return
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

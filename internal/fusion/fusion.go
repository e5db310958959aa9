// Package fusion implements the IR-level coarsening pre-pass that runs in
// front of the windowed MST sweep: a pure producer statement whose stored
// value has exactly one consumer — the statement immediately after it — is
// merged into that consumer by substituting the producer's right-hand side
// for every read of the temporary. The temporary's store disappears, so the
// partitioner schedules fewer statement instances, emits fewer sync arcs,
// and never pays home-bank traffic for a value that only ever existed to
// carry data one statement forward (the "fused intermediates that never
// leave fast memory" argument of the data-movement-complexity literature).
//
// Legality is decided from the same affine machinery the partitioner's
// location detection uses (ir.SubscriptOf / ir.Dependences):
//
//   - the producer's store subscript must be affine (an indirect store
//     cannot be proven single-consumer);
//   - the producer must not read its own output array (a reduction
//     boundary: the accumulator is live across iterations and sweeps);
//   - the consumer must not overwrite the temporary, and must read it
//     exactly once, as a value-position reference whose affine subscript is
//     exactly the producer's store subscript (same-iteration flow; a
//     subscript-position read would splice an expression into an index, and
//     a second read would duplicate the producer's whole operand tree —
//     re-fetching every producer input once per read is precisely the
//     movement the pass exists to avoid, so multi-read consumers bail);
//   - no other statement of the body, and no other nest of the program,
//     may reference the temporary (it must be provably dead after fusion —
//     this is the fork/join boundary: values crossing nests never fuse);
//   - no may-dependence (the inspector–executor path) may touch either
//     statement — runtime-resolved aliasing defeats the exact-consumer
//     argument, so the pass bails conservatively;
//   - the merged statement's operand footprint must still fit the L1
//     capacity model, or the window scheduler would thrash the very reuse
//     the merge was meant to protect.
//
// Candidates are scanned in ascending statement order and re-scanned after
// every merge, so chains (a temp feeding a temp) coarsen to a fixpoint and
// the result is deterministic for a given body — no map iteration is
// involved anywhere in the pass (dmacplint's maporder analyzer watches this
// package like every other emission-path package).
package fusion

import (
	"dmacp/internal/ir"
)

// Limits is the capacity model the pass checks merged statements against.
// It deliberately mirrors core's L1 shadow-cache parameters without
// importing core (core imports fusion, not the reverse).
type Limits struct {
	// L1Bytes is the per-node L1 capacity; 0 means the default 32 KB.
	L1Bytes uint64
	// LineBytes is the cache line size; 0 means the default 64 B.
	LineBytes uint64
}

const (
	defaultL1Bytes   = 32 << 10
	defaultLineBytes = 64
)

// FusionMap records how coarsened statement indices expand back to the
// original body, so reports and diagnostics can name original statements.
// It is published together with the partitioner's Result and read
// concurrently, so it is immutable once built: `make race` fails on a write
// that races a reader, and TestScheduleDigests and `make jobs-identical` on
// one that changes emitted output.
type FusionMap struct {
	// Groups[f] lists the original statement indices folded into coarsened
	// statement f, in original program order. A singleton group is an
	// unfused statement.
	Groups [][]int
}

// Originals returns the original body length the map covers.
func (m *FusionMap) Originals() int {
	n := 0
	for _, g := range m.Groups {
		n += len(g)
	}
	return n
}

// Result is the outcome of one Coarsen call.
type Result struct {
	// Nest is the coarsened nest. When no merge was legal it is the input
	// nest itself (pointer-identical), so callers can cheaply detect the
	// identity case.
	Nest *ir.Nest
	// Map expands coarsened statement indices to original ones.
	Map *FusionMap
	// Merged is the number of producer→consumer merges performed.
	Merged int
}

// Coarsen greedily fuses producer→consumer statement pairs of the nest's
// body until no legal candidate remains, scanning candidates in ascending
// statement order. prog supplies the cross-nest liveness check; a nil prog
// disables fusion entirely (liveness cannot be proven).
func Coarsen(prog *ir.Program, nest *ir.Nest, lim Limits) *Result {
	groups := make([][]int, len(nest.Body))
	for i := range groups {
		groups[i] = []int{i}
	}
	if prog == nil || len(nest.Body) < 2 {
		return &Result{Nest: nest, Map: &FusionMap{Groups: groups}}
	}

	body := append([]*ir.Statement(nil), nest.Body...)
	merged := 0
	for {
		p := nextCandidate(prog, nest, body, lim)
		if p < 0 {
			break
		}
		body[p] = fuse(body[p], body[p+1])
		body = append(body[:p+1], body[p+2:]...)
		groups[p] = append(groups[p], groups[p+1]...)
		groups = append(groups[:p+1], groups[p+2:]...)
		merged++
	}
	if merged == 0 {
		return &Result{Nest: nest, Map: &FusionMap{Groups: groups}}
	}
	return &Result{
		Nest:   &ir.Nest{Name: nest.Name, Loops: nest.Loops, Body: body},
		Map:    &FusionMap{Groups: groups},
		Merged: merged,
	}
}

// nextCandidate returns the lowest producer index p such that fusing
// body[p] into body[p+1] is legal, or -1. Dependences are recomputed per
// call because every merge changes the body.
func nextCandidate(prog *ir.Program, nest *ir.Nest, body []*ir.Statement, lim Limits) int {
	deps := ir.Dependences(body)
	for p := 0; p+1 < len(body); p++ {
		if legal(prog, nest, body, deps, p, lim) {
			return p
		}
	}
	return -1
}

// legal decides whether body[p] may be fused into body[p+1] under the rules
// in the package comment.
func legal(prog *ir.Program, nest *ir.Nest, body []*ir.Statement, deps []ir.Dep, p int, lim Limits) bool {
	prod, cons := body[p], body[p+1]
	temp := prod.LHS.Array

	// The temporary must be a declared array (never a loop variable that
	// leaked into store position) with an affine store subscript.
	if prog.Array(temp) == nil {
		return false
	}
	wsub, ok := ir.SubscriptOf(prod.LHS)
	if !ok {
		return false
	}
	// Reduction boundary: the producer accumulates into its own output.
	for _, r := range prod.Inputs() {
		if r.Array == temp {
			return false
		}
	}
	// The consumer must read the temporary exactly once (value position,
	// exact subscript) and must not overwrite it or index through it. A
	// second read would clone the producer's operand tree and re-fetch its
	// inputs, inflating the very movement the merge is meant to remove.
	if cons.LHS.Array == temp || refMentions(cons.LHS.Index, temp) {
		return false
	}
	reads, ok := countTempReads(cons.RHS, temp, wsub)
	if !ok || reads != 1 {
		return false
	}
	// The temporary must be dead after the consumer: no other statement of
	// this body and no other nest of the program may reference it.
	for i, s := range body {
		if i != p && i != p+1 && stmtMentions(s, temp) {
			return false
		}
	}
	for _, n2 := range prog.Nests {
		if n2 == nest {
			continue
		}
		for _, s := range n2.Body {
			if stmtMentions(s, temp) {
				return false
			}
		}
	}
	// May-dependences touching either statement defeat the exact-consumer
	// proof; bail conservatively.
	for _, d := range deps {
		if d.Kind == ir.May && (d.From == p || d.To == p || d.From == p+1 || d.To == p+1) {
			return false
		}
	}
	// Capacity: the merged statement's operands plus its store must still
	// fit the L1 model (one line per leaf is the conservative bound).
	l1, line := lim.L1Bytes, lim.LineBytes
	if l1 == 0 {
		l1 = defaultL1Bytes
	}
	if line == 0 {
		line = defaultLineBytes
	}
	leaves := ir.NestedSets(fuse(prod, cons).RHS).Leaves(nil)
	return uint64(len(leaves)+1)*line <= l1
}

// countTempReads walks e's value positions counting reads of temp whose
// affine subscript equals wsub. ok is false when temp is read with a
// different or non-affine subscript, or appears inside another reference's
// subscript (where substitution would splice an expression into an index).
func countTempReads(e ir.Expr, temp string, wsub ir.Affine) (reads int, ok bool) {
	switch n := e.(type) {
	case *ir.Num:
		return 0, true
	case *ir.Ref:
		if n.Array == temp {
			sub, sok := ir.SubscriptOf(n)
			if !sok || !affineEqual(sub, wsub) {
				return 0, false
			}
			return 1, true
		}
		if refMentions(n.Index, temp) {
			return 0, false
		}
		return 0, true
	case *ir.Bin:
		l, lok := countTempReads(n.L, temp, wsub)
		r, rok := countTempReads(n.R, temp, wsub)
		return l + r, lok && rok
	}
	return 0, true
}

// refMentions reports whether the expression tree (a subscript) references
// the array anywhere, including nested subscripts.
func refMentions(e ir.Expr, array string) bool {
	switch n := e.(type) {
	case nil:
		return false
	case *ir.Num:
		return false
	case *ir.Ref:
		return n.Array == array || refMentions(n.Index, array)
	case *ir.Bin:
		return refMentions(n.L, array) || refMentions(n.R, array)
	}
	return false
}

// stmtMentions reports whether the statement references the array anywhere
// (store target, store subscript, or any input including subscripts).
func stmtMentions(s *ir.Statement, array string) bool {
	if s.LHS.Array == array || refMentions(s.LHS.Index, array) {
		return true
	}
	for _, r := range s.Inputs() {
		if r.Array == array {
			return true
		}
	}
	return false
}

// affineEqual reports exact equality of two affine subscripts.
func affineEqual(a, b ir.Affine) bool {
	if a.Const != b.Const || len(a.Coeffs) != len(b.Coeffs) {
		return false
	}
	//lint:dmacp-allow maporder equality predicate: the result does not depend on which mismatching key is visited first
	for v, c := range a.Coeffs {
		if b.Coeffs[v] != c {
			return false
		}
	}
	return true
}

// fuse builds the merged statement: the consumer with every read of the
// producer's output replaced by a fresh copy of the producer's right-hand
// side.
func fuse(prod, cons *ir.Statement) *ir.Statement {
	label := cons.Label
	if prod.Label != "" && cons.Label != "" {
		label = prod.Label + "+" + cons.Label
	}
	return &ir.Statement{
		LHS:   cons.LHS,
		RHS:   substitute(cons.RHS, prod.LHS.Array, prod.RHS),
		Label: label,
	}
}

// substitute replaces every value-position read of temp in e with a deep
// copy of repl. Subscript positions are never entered (legal() proved temp
// does not appear there); sharing subtrees between statements would alias
// the per-ref operand maps the partitioner keys on, hence the copy.
func substitute(e ir.Expr, temp string, repl ir.Expr) ir.Expr {
	switch n := e.(type) {
	case *ir.Num:
		return n
	case *ir.Ref:
		if n.Array == temp {
			return cloneExpr(repl)
		}
		return n
	case *ir.Bin:
		return &ir.Bin{Op: n.Op, L: substitute(n.L, temp, repl), R: substitute(n.R, temp, repl)}
	}
	return e
}

// cloneExpr deep-copies an expression tree.
func cloneExpr(e ir.Expr) ir.Expr {
	switch n := e.(type) {
	case *ir.Num:
		c := *n
		return &c
	case *ir.Ref:
		c := &ir.Ref{Array: n.Array}
		if n.Index != nil {
			c.Index = cloneExpr(n.Index)
		}
		return c
	case *ir.Bin:
		return &ir.Bin{Op: n.Op, L: cloneExpr(n.L), R: cloneExpr(n.R)}
	}
	return e
}

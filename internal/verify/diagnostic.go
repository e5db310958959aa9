package verify

import (
	"fmt"
	"strings"
)

// Kind classifies what a diagnostic reports.
type Kind int

// The diagnostic kinds, from hard semantic races to advisory findings.
const (
	// KindRAW: a read observes a line whose writer is not ordered before it.
	KindRAW Kind = iota
	// KindWAR: a store overwrites a line a prior reader is not ordered
	// before.
	KindWAR
	// KindWAW: two stores to one line are unordered.
	KindWAW
	// KindDeadlock: the wait graph (arcs plus per-node order) has a cycle.
	KindDeadlock
	// KindStructural: the schedule violates a structural invariant
	// (core.ValidateScheduleOn) or the verifier's inputs are inconsistent.
	KindStructural
	// KindMissingFetch: a statement instance never fetches a line its
	// right-hand side requires.
	KindMissingFetch
	// KindWrongResult: an instance's root stores to a different line than
	// the one the IR says its left-hand side writes.
	KindWrongResult
	// KindRedundantArc: a WaitFor arc the arc-only closure already implies
	// (sync-sufficiency; cross-validates core.ReduceSyncs). Advisory.
	KindRedundantArc
	// KindOutOfBounds: an affine subscript's range exceeds the declared
	// array extent (accesses wrap modulo the extent). Advisory.
	KindOutOfBounds
	// KindUnresolved: a reference could not be resolved to an address and
	// the emitter's documented fallback anchoring was assumed. Advisory.
	KindUnresolved
	// KindStaleReuse: a read claims an L1 hit on a line whose copy the
	// write-invalidate model no longer holds at the reader's node (the
	// latest store killed it, or it was never created). Such a schedule
	// would observe a stale value on coherent hardware, so this is a
	// Violation — the emitters' reuse maps and shadow L1s model the same
	// invalidation, keeping clean schedules clean.
	KindStaleReuse
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRAW:
		return "RAW"
	case KindWAR:
		return "WAR"
	case KindWAW:
		return "WAW"
	case KindDeadlock:
		return "deadlock"
	case KindStructural:
		return "structural"
	case KindMissingFetch:
		return "missing-fetch"
	case KindWrongResult:
		return "wrong-result"
	case KindRedundantArc:
		return "redundant-arc"
	case KindOutOfBounds:
		return "out-of-bounds"
	case KindUnresolved:
		return "unresolved"
	case KindStaleReuse:
		return "stale-reuse"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Severity separates refutations (the schedule is wrong) from advisories.
type Severity int

// Severities.
const (
	Warning Severity = iota
	Violation
)

// String names the severity.
func (s Severity) String() string {
	if s == Violation {
		return "violation"
	}
	return "warning"
}

// RaceDiagnostic is one finding: for race kinds it is a concrete
// counterexample naming the two statement instances, the tasks carrying
// them, their mesh nodes, and the contended line. Fields not applicable to
// a kind hold -1 (tasks/instances) or zero values.
type RaceDiagnostic struct {
	Kind     Kind
	Severity Severity

	// EarlierTask / LaterTask are the schedule task IDs of the unordered
	// pair (earlier = the access that must come first under program order).
	EarlierTask, LaterTask int
	// The statement instances the two tasks belong to.
	EarlierIter, EarlierStmt int
	LaterIter, LaterStmt     int
	// The mesh nodes the two tasks run on.
	EarlierNode, LaterNode int

	// Array names the contended datum ("B[24]" when the line label is
	// known, otherwise the raw line address); Line is the physical line.
	Array string
	Line  uint64

	// Detail is the human-readable explanation.
	Detail string
}

// String formats the diagnostic as a single report line.
func (d RaceDiagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", d.Severity, d.Kind)
	if d.EarlierTask >= 0 && d.LaterTask >= 0 {
		fmt.Fprintf(&b, ": instance (iter %d, stmt %d) task %d@n%d vs instance (iter %d, stmt %d) task %d@n%d",
			d.EarlierIter, d.EarlierStmt, d.EarlierTask, d.EarlierNode,
			d.LaterIter, d.LaterStmt, d.LaterTask, d.LaterNode)
	}
	if d.Array != "" {
		fmt.Fprintf(&b, " on %s", d.Array)
	}
	if d.Detail != "" {
		fmt.Fprintf(&b, ": %s", d.Detail)
	}
	return b.String()
}

// Report is the outcome of one Check run.
type Report struct {
	// Tasks and Instances describe the verified schedule.
	Tasks, Instances int
	// DepsChecked counts the instance-level dependence pairs whose ordering
	// the closure was queried for (RAW + WAR + WAW).
	DepsChecked int
	// Violations are the semantic refutations (the schedule is incorrect);
	// Warnings are the advisory findings. Both are capped at the configured
	// MaxDiagnostics; ViolationCount / WarningCount keep the true totals.
	Violations, Warnings         []RaceDiagnostic
	ViolationCount, WarningCount int
	// RedundantArcs counts WaitFor arcs already implied by the remaining
	// arc structure (sync-sufficiency accounting).
	RedundantArcs int
	// Counts tallies every diagnostic by kind — violations and warnings
	// together, uncapped — so callers (the -strict CLI mode, the
	// differential harness) can hold individual kinds at zero.
	Counts map[Kind]int
}

// Clean reports whether the schedule verified without violations.
func (r *Report) Clean() bool { return r.ViolationCount == 0 }

// Err returns nil for a clean report and an error quoting the first
// violation otherwise.
func (r *Report) Err() error {
	if r.Clean() {
		return nil
	}
	return fmt.Errorf("verify: %d violation(s); first: %s", r.ViolationCount, r.Violations[0])
}

// Summary formats the report's headline counters.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d tasks, %d instances, %d dependence pairs checked: %d violations, %d warnings, %d redundant arcs",
		r.Tasks, r.Instances, r.DepsChecked, r.ViolationCount, r.WarningCount, r.RedundantArcs)
}

// Lines renders every retained diagnostic, violations first.
func (r *Report) Lines() []string {
	out := make([]string, 0, len(r.Violations)+len(r.Warnings))
	for _, d := range r.Violations {
		out = append(out, d.String())
	}
	for _, d := range r.Warnings {
		out = append(out, d.String())
	}
	return out
}

// KindSummary renders the per-kind diagnostic tally in kind order
// ("WAR=1 stale-reuse=3"), or "none" for a finding-free report.
func (r *Report) KindSummary() string {
	if len(r.Counts) == 0 {
		return "none"
	}
	var b strings.Builder
	for k := KindRAW; k <= KindStaleReuse; k++ {
		if c := r.Counts[k]; c > 0 {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%d", k, c)
		}
	}
	return b.String()
}

func (r *Report) count(k Kind) {
	if r.Counts == nil {
		r.Counts = make(map[Kind]int)
	}
	r.Counts[k]++
}

func (r *Report) addViolation(d RaceDiagnostic, max int) {
	d.Severity = Violation
	r.ViolationCount++
	r.count(d.Kind)
	if len(r.Violations) < max {
		r.Violations = append(r.Violations, d)
	}
}

func (r *Report) addWarning(d RaceDiagnostic, max int) {
	d.Severity = Warning
	r.WarningCount++
	r.count(d.Kind)
	if len(r.Warnings) < max {
		r.Warnings = append(r.Warnings, d)
	}
}

package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"dmacp/internal/mesh"
)

// expiredCtx returns a context whose deadline has already passed: the
// repair ladder's AssignAuto best-of stops at its one poll, which comes
// after the cheap greedy repair, and a rejected stage 1 fails at stage
// "deadline".
func expiredCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithDeadline(context.Background(), time.Time{})
	t.Cleanup(cancel)
	return ctx
}

func TestChurnStateObserve(t *testing.T) {
	m := mesh.MustNew(6, 6)
	cs := NewChurnState()
	f := mesh.NewFaultSet()

	cs.Observe(m, f)
	if cs.Failures(3) != 0 {
		t.Fatal("pristine mesh must show zero failures")
	}
	f.KillTile(3)
	cs.Observe(m, f)
	cs.Observe(m, f) // still down: no double count
	if got := cs.Failures(3); got != 1 {
		t.Fatalf("one kill = one failure, got %d", got)
	}
	f.ReviveTile(3)
	cs.Observe(m, f)
	f.KillTile(3)
	cs.Observe(m, f)
	if got := cs.Failures(3); got != 2 {
		t.Fatalf("kill-revive-kill = two failures, got %d", got)
	}
	if (*ChurnState)(nil).Failures(3) != 0 {
		t.Fatal("nil ChurnState must report zero failures")
	}
}

// TestNoThrashInvariant is the churn-convergence proof: N repeated
// fault/revive cycles of the same element cost O(1) migrations after the
// first. Cycle 1 may migrate work back to the revived tile; from the second
// failure on, the churn cap refuses the flapping element outright, so every
// later revive migrates exactly zero tasks.
func TestNoThrashInvariant(t *testing.T) {
	s, opts := partitioned(t)
	m := opts.Mesh
	var victim mesh.NodeID = mesh.InvalidNode
	for n := mesh.NodeID(0); int(n) < m.Nodes(); n++ {
		if !m.IsMemoryController(n) && tasksOn(s, n) > 0 {
			victim = n
			break
		}
	}
	if victim == mesh.InvalidNode {
		t.Skip("no non-MC node hosts tasks")
	}

	const cycles = 5
	f := mesh.NewFaultSet()
	churn := NewChurnState()
	ro := RepairOptions{LoadThreshold: opts.LoadThreshold}
	migrations := make([]int, cycles)
	lateCandidates := 0
	lateDeclines := 0
	for c := 0; c < cycles; c++ {
		f.KillTile(victim)
		churn.Observe(m, f)
		repaired, _, err := RepairVerified(s, m, f, ro, nil)
		if err != nil {
			t.Fatalf("cycle %d repair: %v", c, err)
		}
		s = repaired
		if tasksOn(s, victim) != 0 {
			t.Fatalf("cycle %d: repaired schedule still uses dead node %d", c, victim)
		}

		f.ReviveTile(victim)
		churn.Observe(m, f)
		back, rrep, err := ReintegrateOnline(s, m, f, []mesh.NodeID{victim}, churn, nil)
		if err != nil {
			t.Fatalf("cycle %d reintegrate: %v", c, err)
		}
		s = back
		migrations[c] = rrep.Migrated
		if c >= 1 {
			lateCandidates += rrep.Candidates
			lateDeclines += rrep.DeclinedChurn
		}
		if rrep.Accepted && rrep.MovementAfter+rrep.MigrationTraffic > rrep.MovementBefore {
			t.Fatalf("cycle %d: accepted reintegration loses movement: after %d + traffic %d > before %d",
				c, rrep.MovementAfter, rrep.MigrationTraffic, rrep.MovementBefore)
		}
	}
	for c := 1; c < cycles; c++ {
		if migrations[c] != 0 {
			t.Fatalf("no-thrash violated: cycle %d migrated %d tasks (history %v)", c, migrations[c], migrations)
		}
	}
	// If later cycles still saw profitable candidates, the churn cap must be
	// what held them back — otherwise the invariant passed vacuously.
	if lateCandidates > 0 && lateDeclines == 0 {
		t.Fatalf("late cycles had %d candidates but no churn declines", lateCandidates)
	}
}

func TestReintegrateHysteresisBlocksMarginalMoves(t *testing.T) {
	s, opts := partitioned(t)
	m := opts.Mesh
	var victim mesh.NodeID = mesh.InvalidNode
	for n := mesh.NodeID(0); int(n) < m.Nodes(); n++ {
		if !m.IsMemoryController(n) && tasksOn(s, n) > 0 {
			victim = n
			break
		}
	}
	if victim == mesh.InvalidNode {
		t.Skip("no non-MC node hosts tasks")
	}
	f := mesh.NewFaultSet()
	f.KillTile(victim)
	repaired, _, err := RepairVerified(s, m, f, RepairOptions{LoadThreshold: opts.LoadThreshold}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.ReviveTile(victim)

	// An absurd hysteresis threshold: no saving can clear it, so nothing may
	// migrate and the plan is the stay-put residual.
	rrep := &ReintegrateReport{}
	plan := planReintegration(repaired, m, f, []mesh.NodeID{victim}, 1e12, NewChurnState(), rrep)
	back := plan.residual
	if plan.moved != nil || plan.returns != 0 {
		t.Fatalf("hysteresis 1e12 still migrated %d tasks", plan.returns)
	}
	if rrep.Candidates > 0 && rrep.DeclinedHysteresis == 0 {
		t.Fatalf("candidates existed (%d) but none were declined by hysteresis", rrep.Candidates)
	}
	if tasksOn(back, victim) != 0 {
		t.Fatal("stay-put residual must not use the revived node")
	}
}

// deadTileWithWork kills the first non-MC node hosting tasks and returns the
// schedule, its options, the fault set and the victim.
func deadTileWithWork(t *testing.T) (*Schedule, Options, *mesh.FaultSet, mesh.NodeID) {
	t.Helper()
	s, opts := partitioned(t)
	m := opts.Mesh
	for n := mesh.NodeID(0); int(n) < m.Nodes(); n++ {
		if !m.IsMemoryController(n) && tasksOn(s, n) > 0 {
			f := mesh.NewFaultSet()
			f.KillTile(n)
			return s, opts, f, n
		}
	}
	t.Skip("no non-MC node hosts tasks")
	return nil, Options{}, nil, mesh.InvalidNode
}

// TestAnytimeDeadlineReturnsGreedyIncumbent pins the anytime contract: with
// a budget that expires right after the first (greedy) attempt, the ladder
// returns that verified incumbent rather than failing or running the
// batched solve.
func TestAnytimeDeadlineReturnsGreedyIncumbent(t *testing.T) {
	s, _, f, _ := deadTileWithWork(t)
	m := mesh.MustNew(6, 6)

	// Unbounded reference: the full anytime path (greedy then min-cost).
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	unbounded, urep, err := RepairVerifiedCtx(ctx, s, m, f, RepairOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unbounded == nil {
		t.Fatal("unbounded anytime repair returned nothing")
	}

	// Already expired: the first poll, which happens after greedy, stops.
	got, grep, err := RepairVerifiedCtx(expiredCtx(t), s, m, f, RepairOptions{}, nil)
	if err != nil {
		t.Fatalf("deadline with an incumbent must succeed: %v", err)
	}
	if grep.Strategy != "greedy" {
		t.Fatalf("pre-deadline incumbent should be the greedy repair, got %q", grep.Strategy)
	}
	if err := ValidateScheduleOn(got, m, f); err != nil {
		t.Fatalf("incumbent not verifier-clean: %v", err)
	}
	// The anytime guarantee: more budget never returns worse movement.
	if urep.MovementAfter > grep.MovementAfter {
		t.Fatalf("unbounded result (%d) worse than pre-deadline incumbent (%d)",
			urep.MovementAfter, grep.MovementAfter)
	}
}

func TestAnytimeDeadlineWithNoIncumbentFails(t *testing.T) {
	s, _, f, _ := deadTileWithWork(t)
	m := mesh.MustNew(6, 6)
	rejectAll := func(*Schedule) error { return errors.New("rejected by test checker") }

	_, _, err := RepairVerifiedCtx(expiredCtx(t), s, m, f, RepairOptions{}, rejectAll)
	if err == nil {
		t.Fatal("expired deadline with no clean schedule must fail")
	}
	var rf *RepairFailure
	if !errors.As(err, &rf) || rf.Stage != "deadline" {
		t.Fatalf("want RepairFailure at stage deadline, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline failure must unwrap to context.DeadlineExceeded, got %v", err)
	}
}

// TestRepairEscalatesToFullReplacement pins the classic ladder: a checker
// that rejects the incremental repair accepts the full re-placement, and a
// checker that rejects both fails at stage re-place-verify-reject after
// exactly two consultations.
func TestRepairEscalatesToFullReplacement(t *testing.T) {
	s, _, f, _ := deadTileWithWork(t)
	m := mesh.MustNew(6, 6)

	calls := 0
	rejectFirst := func(c *Schedule) error {
		calls++
		if calls == 1 {
			return errors.New("rejected incremental repair")
		}
		return ValidateScheduleOn(c, m, f)
	}
	got, rep, err := RepairVerified(s, m, f, RepairOptions{}, rejectFirst)
	if err != nil {
		t.Fatalf("full re-placement should have been accepted: %v", err)
	}
	if !rep.Full || calls != 2 {
		t.Fatalf("want acceptance at the full re-placement after 2 checks, got Full=%v after %d", rep.Full, calls)
	}
	if err := ValidateScheduleOn(got, m, f); err != nil {
		t.Fatal(err)
	}

	calls = 0
	rejectAll := func(*Schedule) error { calls++; return errors.New("rejected by test checker") }
	_, _, err = RepairVerified(s, m, f, RepairOptions{}, rejectAll)
	var rf *RepairFailure
	if !errors.As(err, &rf) || rf.Stage != "re-place-verify-reject" || calls != 2 {
		t.Fatalf("want failure at re-place-verify-reject after 2 checks, got %v after %d", err, calls)
	}
}

// TestDeadlineLadderMatchesUnbounded pins the single stage 1: under a
// deadline that cannot pass, the ladder verifies its one incremental repair
// exactly once and returns the same schedule and report as a run without a
// deadline.
func TestDeadlineLadderMatchesUnbounded(t *testing.T) {
	s, _, f, _ := deadTileWithWork(t)
	m := mesh.MustNew(6, 6)

	calls := 0
	acceptAll := func(*Schedule) error { calls++; return nil }
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, rep, err := RepairVerifiedCtx(ctx, s, m, f, RepairOptions{}, acceptAll)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("checker consulted %d times under a deadline, want 1", calls)
	}
	want, wantRep, err := RepairVerified(s, m, f, RepairOptions{}, acceptAll)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(rep, wantRep) {
		t.Fatalf("deadline run differs from the run without one: %+v vs %+v", rep, wantRep)
	}
}

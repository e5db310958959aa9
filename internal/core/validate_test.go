package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dmacp/internal/mesh"
)

// referenceInstanceCheck is ValidateScheduleOn's root and instance-order
// rule as it was written before the roots map went: every root is looked
// up in a map of the instances seen so far.
func referenceInstanceCheck(s *Schedule) error {
	type instKey struct{ iter, stmt int }
	roots := make(map[instKey]int)
	lastIter, lastStmt := -1, -1
	for i, t := range s.Tasks {
		if t.IsRoot {
			k := instKey{t.Iter, t.Stmt}
			if prev, dup := roots[k]; dup {
				return fmt.Errorf("core: instance (iter %d, stmt %d) has two roots: %d and %d",
					t.Iter, t.Stmt, prev, i)
			}
			roots[k] = i
		}
		if t.Iter < lastIter || (t.Iter == lastIter && t.Stmt < lastStmt) {
			return fmt.Errorf("core: task %d out of instance order", i)
		}
		lastIter, lastStmt = t.Iter, t.Stmt
	}
	if s.Instances > 0 && len(roots) != s.Instances {
		return fmt.Errorf("core: %d roots for %d instances", len(roots), s.Instances)
	}
	return nil
}

// TestValidateRootsMatchMap drives ValidateScheduleOn's map-free root check
// with random instance sequences (in order, with repeated roots, dropped
// roots and out-of-order tasks) and requires the same verdict and message
// as the map-based reference.
func TestValidateRootsMatchMap(t *testing.T) {
	m := mesh.MustNew(2, 2)
	rng := rand.New(rand.NewSource(11))
	kinds := map[string]int{}
	for trial := 0; trial < 2000; trial++ {
		s := &Schedule{}
		iter, stmt, instances := 0, 0, 0
		for n := 1 + rng.Intn(12); n > 0; n-- {
			// One instance: a few non-root tasks, then its root.
			for k := rng.Intn(3); k > 0; k-- {
				s.Tasks = append(s.Tasks, &Task{Iter: iter, Stmt: stmt})
			}
			s.Tasks = append(s.Tasks, &Task{Iter: iter, Stmt: stmt, IsRoot: true})
			instances++
			if stmt++; stmt == 2 {
				iter, stmt = iter+1, 0
			}
		}
		switch rng.Intn(4) {
		case 0: // a second root, in place or moved elsewhere
			dup := *s.Tasks[rng.Intn(len(s.Tasks))]
			dup.IsRoot = true
			at := rng.Intn(len(s.Tasks) + 1)
			s.Tasks = append(s.Tasks[:at], append([]*Task{&dup}, s.Tasks[at:]...)...)
		case 1: // a root demoted
			for _, tk := range s.Tasks {
				if tk.IsRoot && rng.Intn(3) == 0 {
					tk.IsRoot = false
					break
				}
			}
		case 2: // two tasks swapped
			a, b := rng.Intn(len(s.Tasks)), rng.Intn(len(s.Tasks))
			s.Tasks[a], s.Tasks[b] = s.Tasks[b], s.Tasks[a]
		}
		for i, tk := range s.Tasks {
			tk.ID = i
		}
		s.Instances = instances
		s.NumberLines()
		want := referenceInstanceCheck(s)
		got := ValidateScheduleOn(s, m, nil)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: got %v, reference %v", trial, got, want)
		}
		kinds[kind(want)]++
	}
	for _, k := range []string{"clean", "two roots", "out of order", "root count"} {
		if kinds[k] == 0 {
			t.Errorf("no trial ended %s: %v", k, kinds)
		}
	}
}

func kind(err error) string {
	switch s := fmt.Sprint(err); {
	case err == nil:
		return "clean"
	case strings.Contains(s, "two roots"):
		return "two roots"
	case strings.Contains(s, "out of instance order"):
		return "out of order"
	default:
		return "root count"
	}
}

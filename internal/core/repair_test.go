package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"dmacp/internal/mesh"
)

// partitioned builds a small two-statement schedule to repair.
func partitioned(t *testing.T) (*Schedule, Options) {
	t.Helper()
	prog, nest, store := smallNest(t, 64)
	opts := testOpts()
	opts.FixedWindow = 4
	res, err := Partition(prog, nest, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule, opts
}

func tasksOn(s *Schedule, n mesh.NodeID) int {
	c := 0
	for _, t := range s.Tasks {
		if t.Node == n {
			c++
		}
	}
	return c
}

func TestRepairMigratesOffDeadTile(t *testing.T) {
	s, opts := partitioned(t)
	m := opts.Mesh
	// Kill a non-MC tile that actually hosts work.
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
	had := tasksOn(s, victim)
	f := mesh.NewFaultSet()
	f.KillTile(victim)

	rep, err := RepairSchedule(s, m, f, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tasksOn(s, victim) != 0 {
		t.Errorf("%d tasks still on dead node %d", tasksOn(s, victim), victim)
	}
	if rep.Migrated < had {
		t.Errorf("migrated %d tasks, node hosted %d", rep.Migrated, had)
	}
	if len(rep.DeadNodes) != 1 || rep.DeadNodes[0] != victim {
		t.Errorf("DeadNodes = %v, want [%d]", rep.DeadNodes, victim)
	}
	if err := ValidateScheduleOn(s, m, f); err != nil {
		t.Errorf("repaired schedule fails structural validation: %v", err)
	}
	if rep.MovementAfter < rep.MovementBefore {
		t.Errorf("movement shrank under faults: %d -> %d", rep.MovementBefore, rep.MovementAfter)
	}
	mv, err := MovementOn(s, m, f)
	if err != nil {
		t.Fatal(err)
	}
	if mv != rep.MovementAfter {
		t.Errorf("MovementOn = %d, report says %d", mv, rep.MovementAfter)
	}
}

func TestRepairImpossibleWhenAllMCsDead(t *testing.T) {
	for _, kill := range []string{"tiles", "routers"} {
		s, opts := partitioned(t)
		f := mesh.NewFaultSet()
		for _, mc := range opts.Mesh.MemoryControllers() {
			if kill == "tiles" {
				f.KillTile(mc)
			} else {
				f.KillRouter(mc)
			}
		}
		_, err := RepairSchedule(s, opts.Mesh, f, RepairOptions{})
		if err == nil {
			t.Fatalf("dead MC %s: repair succeeded, want impossible", kill)
		}
		if !strings.Contains(err.Error(), "no usable memory controller") {
			t.Errorf("dead MC %s: error %q lacks diagnosis", kill, err)
		}
		if !errors.Is(err, mesh.ErrPartitioned) {
			t.Errorf("dead MC %s: error %v does not wrap mesh.ErrPartitioned", kill, err)
		}
		if _, _, err := RepairVerified(s, opts.Mesh, f, RepairOptions{}, nil); err == nil {
			t.Fatalf("dead MC %s: RepairVerified succeeded, want error", kill)
		}
	}
}

func TestRepairVerifiedLeavesOriginalUntouched(t *testing.T) {
	s, opts := partitioned(t)
	m := opts.Mesh
	orig := s.Clone()
	f := mesh.Inject(m, 3, 3, 0, 1, true)

	repaired, rep, err := RepairVerified(s, m, f, RepairOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repaired == s {
		t.Fatal("RepairVerified returned the input schedule, not a clone")
	}
	if rep.MovementBefore <= 0 {
		t.Errorf("MovementBefore = %d", rep.MovementBefore)
	}
	// The input must be byte-for-byte what it was.
	if len(s.Tasks) != len(orig.Tasks) || s.SyncsBefore != orig.SyncsBefore || s.SyncsAfter != orig.SyncsAfter {
		t.Fatal("RepairVerified mutated the input schedule header")
	}
	for i, tk := range s.Tasks {
		o := orig.Tasks[i]
		if tk.Node != o.Node || len(tk.Fetches) != len(o.Fetches) || len(tk.WaitFor) != len(o.WaitFor) {
			t.Fatalf("task %d mutated by RepairVerified", i)
		}
		for j := range tk.Fetches {
			if tk.Fetches[j] != o.Fetches[j] {
				t.Fatalf("task %d fetch %d mutated", i, j)
			}
		}
	}
	if err := ValidateScheduleOn(repaired, m, f); err != nil {
		t.Errorf("accepted repair fails validation: %v", err)
	}
}

func TestRepairFullReplacement(t *testing.T) {
	s, opts := partitioned(t)
	m := opts.Mesh
	f := mesh.Inject(m, 11, 2, 0, 1, true)
	c := s.Clone()
	rep, err := RepairSchedule(c, m, f, RepairOptions{Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Full {
		t.Error("report does not record the full re-placement")
	}
	// Full re-placement reconsiders every task, not just stranded ones.
	if rep.Migrated == 0 {
		t.Error("full re-placement moved nothing")
	}
	if err := ValidateScheduleOn(c, m, f); err != nil {
		t.Errorf("full re-placement fails validation: %v", err)
	}
}

func TestRepairNoFaultsIsNoop(t *testing.T) {
	s, opts := partitioned(t)
	before, err := MovementOn(s, opts.Mesh, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RepairSchedule(s, opts.Mesh, mesh.NewFaultSet(), RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrated != 0 || rep.AddedArcs != 0 || rep.RehomedFetches != 0 {
		t.Errorf("empty fault set did work: %+v", rep)
	}
	if rep.MovementBefore != before || rep.MovementAfter != before {
		t.Errorf("movement %d/%d, want %d unchanged", rep.MovementBefore, rep.MovementAfter, before)
	}
}

// TestRepairedCloneSyncArcsNotAliased mutates the sync arcs of a repaired
// clone and requires the original's arcs to survive untouched: repair and
// escalation retries depend on Clone being deep for WaitFor and WaitHops.
func TestRepairedCloneSyncArcsNotAliased(t *testing.T) {
	s, opts := partitioned(t)
	m := opts.Mesh
	f := mesh.Inject(m, 3, 3, 0, 1, true)
	repaired, _, err := RepairVerified(s, m, f, RepairOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mutated := false
	for i, tk := range repaired.Tasks {
		o := s.Tasks[i]
		if len(tk.WaitFor) == 0 || len(o.WaitFor) == 0 {
			continue
		}
		was, hops := o.WaitFor[0], o.WaitHops[0]
		tk.WaitFor[0] = -77
		tk.WaitHops[0] = -77
		if o.WaitFor[0] != was || o.WaitHops[0] != hops {
			t.Fatalf("task %d sync arcs aliased between repaired clone and original", i)
		}
		mutated = true
	}
	if !mutated {
		t.Skip("no task carries a sync arc")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s, _ := partitioned(t)
	c := s.Clone()
	if len(c.Tasks) == 0 || len(c.Tasks) != len(s.Tasks) {
		t.Fatal("clone task count mismatch")
	}
	// Find a task with a fetch and an arc; mutate the clone, original holds.
	for i, tk := range c.Tasks {
		o := s.Tasks[i]
		tk.Node = tk.Node + 1
		if o.Node == tk.Node {
			t.Fatal("task struct shared between clone and original")
		}
		if len(tk.Fetches) > 0 {
			tk.Fetches[0].From = mesh.InvalidNode
			if o.Fetches[0].From == mesh.InvalidNode {
				t.Fatal("fetch slice shared between clone and original")
			}
		}
		if len(tk.WaitFor) > 0 {
			tk.WaitFor[0] = -99
			if o.WaitFor[0] == -99 {
				t.Fatal("WaitFor slice shared between clone and original")
			}
			break
		}
	}

	// Append to one cloned task's Fetches, WaitFor and WaitHops: Clone
	// carves every task's slices out of shared slabs, so an append that did
	// not reallocate would overwrite the next task's entries. The neighbour
	// and the original must be unchanged.
	c = s.Clone()
	appended := false
	for i := 0; i+1 < len(c.Tasks); i++ {
		tk, next := c.Tasks[i], c.Tasks[i+1]
		if len(tk.Fetches) == 0 || len(tk.WaitFor) == 0 || len(next.Fetches) == 0 || len(next.WaitFor) == 0 {
			continue
		}
		nextFetches := append([]Fetch(nil), next.Fetches...)
		nextWaits := append([]int(nil), next.WaitFor...)
		nextHops := append([]int(nil), next.WaitHops...)
		orig := s.Tasks[i]
		origFetches, origWaits := len(orig.Fetches), len(orig.WaitFor)

		tk.Fetches = append(tk.Fetches, Fetch{From: mesh.InvalidNode, Line: 1 << 60})
		tk.addWait(-55, -55)

		if !slices.Equal(next.Fetches, nextFetches) || !slices.Equal(next.WaitFor, nextWaits) ||
			!slices.Equal(next.WaitHops, nextHops) {
			t.Fatalf("append to task %d's slices overwrote task %d", i, i+1)
		}
		if len(orig.Fetches) != origFetches || len(orig.WaitFor) != origWaits || len(orig.WaitHops) != origWaits {
			t.Fatalf("append to cloned task %d changed the original", i)
		}
		if !slices.Equal(s.Tasks[i+1].Fetches, nextFetches) || !slices.Equal(s.Tasks[i+1].WaitFor, nextWaits) {
			t.Fatalf("append to cloned task %d changed the original's task %d", i, i+1)
		}
		appended = true
		break
	}
	if !appended {
		t.Fatal("no adjacent pair of tasks both carries a fetch and an arc")
	}
}

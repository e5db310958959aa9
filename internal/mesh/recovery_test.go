package mesh

import (
	"reflect"
	"testing"
)

// TestReviveInvalidatesDistanceCache is the regression test for the
// invalidation-on-revival rule: after a revive, AllDistancesAvoiding must
// recompute rather than serve the degraded table. A stale cache here keeps
// pairs partitioned (or detoured) after the hardware came back.
func TestReviveInvalidatesDistanceCache(t *testing.T) {
	m := MustNew(6, 6)
	a, b := m.NodeAt(2, 2), m.NodeAt(3, 2)

	f := NewFaultSet()
	f.KillLink(a, b)
	degraded := m.AllDistancesAvoiding(f)
	if degraded.Between(a, b) == 1 {
		t.Fatalf("dead link %d-%d still at distance 1", a, b)
	}

	f.ReviveLink(a, b)
	// The set is empty again, so AllDistancesAvoiding takes the pristine
	// path; force the memoized path by adding an unrelated tile fault (tiles
	// never affect routing).
	f.KillTile(m.NodeAt(5, 5))
	revived := m.AllDistancesAvoiding(f)
	if revived.Between(a, b) != 1 {
		t.Fatalf("revived link %d-%d still at distance %d, want 1 (stale cache?)", a, b, revived.Between(a, b))
	}

	// Router revival must also clear the cache: node isolation undone.
	r := m.NodeAt(1, 1)
	f.KillRouter(r)
	if d := m.AllDistancesAvoiding(f); d.Between(r, a) != -1 {
		t.Fatalf("dead router %d reachable at distance %d", r, d.Between(r, a))
	}
	f.ReviveRouter(r)
	if d := m.AllDistancesAvoiding(f); d.Between(r, a) < 0 {
		t.Fatalf("revived router %d still partitioned (stale cache?)", r)
	}

	// And tile revival restores usability.
	f.ReviveTile(m.NodeAt(5, 5))
	if !f.Empty() {
		t.Fatalf("expected empty fault set after full revival, got %v", f)
	}
}

func TestReviveUndoesKill(t *testing.T) {
	m := MustNew(6, 6)
	f := NewFaultSet()
	a, b := m.NodeAt(0, 0), m.NodeAt(1, 0)
	f.KillLink(a, b)
	f.KillRouter(7)
	f.KillTile(9)
	if f.Empty() {
		t.Fatal("fault set should not be empty")
	}
	f.ReviveLink(b, a) // argument order must not matter
	f.ReviveRouter(7)
	f.ReviveTile(9)
	if !f.Empty() {
		t.Fatalf("revive did not undo kills: %v", f)
	}
	if !f.LinkAlive(Link{From: a, To: b}) || !f.LinkAlive(Link{From: b, To: a}) {
		t.Fatal("revived link not alive in both directions")
	}
}

func TestFaultSetClone(t *testing.T) {
	f := NewFaultSet()
	f.KillLink(0, 1)
	f.KillRouter(5)
	f.KillTile(6)

	c := f.Clone()
	if c.DeadLinks() != 1 || c.RouterAlive(5) || c.TileAlive(6) {
		t.Fatalf("clone mismatch: %v", c)
	}
	c.ReviveRouter(5)
	if !f.RouterAlive(5) == false {
		t.Fatal("reviving the clone must not touch the original")
	}
	if c.RouterAlive(5) != true {
		t.Fatal("clone revive failed")
	}
	f.KillTile(8)
	if !c.TileAlive(8) {
		t.Fatal("killing in the original must not touch the clone")
	}

	var nilSet *FaultSet
	if got := nilSet.Clone(); !got.Empty() {
		t.Fatalf("nil Clone should be empty, got %v", got)
	}
}

func TestRecoveryAllRoundTrip(t *testing.T) {
	m := MustNew(6, 6)
	f := Inject(m, 42, 3, 1, 2, true)
	all := f.RecoveryAll()
	if len(all.Links) != f.DeadLinks() || len(all.Routers) != deadNodes(m, f.RouterAlive) || len(all.Tiles) != deadNodes(m, f.TileAlive) {
		t.Fatalf("RecoveryAll size mismatch: %v vs %v", all, f)
	}
	// Deterministic ordering.
	again := f.RecoveryAll()
	if !reflect.DeepEqual(all, again) {
		t.Fatalf("RecoveryAll not deterministic: %v vs %v", all, again)
	}
	f.Revive(all)
	if !f.Empty() {
		t.Fatalf("full recovery left faults: %v", f)
	}

	var nilSet *FaultSet
	if r := nilSet.RecoveryAll(); !r.Empty() {
		t.Fatalf("nil RecoveryAll should be empty, got %v", r)
	}
}

func TestRevivedNodes(t *testing.T) {
	m := MustNew(6, 6)
	before := NewFaultSet()
	before.KillTile(3)
	before.KillRouter(10)
	before.KillTile(20)

	after := before.Clone()
	after.ReviveTile(3)
	after.ReviveRouter(10)

	got := RevivedNodes(m, before, after)
	want := []NodeID{3, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RevivedNodes = %v, want %v", got, want)
	}

	// A node whose router revives but whose tile stays dead is not usable.
	b2 := NewFaultSet()
	b2.KillRouter(4)
	b2.KillTile(4)
	a2 := b2.Clone()
	a2.ReviveRouter(4)
	if got := RevivedNodes(m, b2, a2); len(got) != 0 {
		t.Fatalf("half-revived node reported usable: %v", got)
	}
}

// deadNodes counts the nodes of m that alive rejects.
func deadNodes(m *Mesh, alive func(NodeID) bool) int {
	n := 0
	for i := 0; i < m.Nodes(); i++ {
		if !alive(NodeID(i)) {
			n++
		}
	}
	return n
}

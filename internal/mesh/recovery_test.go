package mesh

import (
	"reflect"
	"testing"
)

// TestReviveInvalidatesDistanceCache is the regression test for the
// invalidation-on-revival rule: a tile revival drops the memoized degraded
// distance view like any other mutation, and the revived node is usable
// again.
func TestReviveInvalidatesDistanceCache(t *testing.T) {
	m := MustNew(6, 6)
	a, b := m.NodeAt(2, 2), m.NodeAt(3, 2)
	tile := m.NodeAt(5, 5)

	f := NewFaultSet()
	f.KillLink(a, b) // a routing fault, so the view is memoized
	f.KillTile(tile)
	degraded := m.AllDistancesAvoiding(f)
	if f.NodeUsable(tile) {
		t.Fatalf("dead tile %d reported usable", tile)
	}

	f.ReviveTile(tile)
	if f.dist != nil {
		t.Fatal("ReviveTile kept the memoized distance view")
	}
	if !f.NodeUsable(tile) {
		t.Fatalf("revived tile %d still unusable", tile)
	}
	if !reflect.DeepEqual(m.AllDistancesAvoiding(f), degraded) {
		t.Fatal("a tile revival changed the live-route distances")
	}

	f = NewFaultSet()
	f.KillTile(tile)
	f.ReviveTile(tile)
	if !f.Empty() {
		t.Fatalf("expected empty fault set after full revival, got %v", f)
	}
}

func TestRevivedNodes(t *testing.T) {
	m := MustNew(6, 6)
	before := NewFaultSet()
	before.KillTile(3)
	before.KillRouter(10)
	before.KillTile(20)

	after := NewFaultSet()
	after.KillTile(20)

	got := RevivedNodes(m, before, after)
	want := []NodeID{3, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RevivedNodes = %v, want %v", got, want)
	}

	// A node whose router revives but whose tile stays dead is not usable.
	b2 := NewFaultSet()
	b2.KillRouter(4)
	b2.KillTile(4)
	a2 := NewFaultSet()
	a2.KillTile(4)
	if got := RevivedNodes(m, b2, a2); len(got) != 0 {
		t.Fatalf("half-revived node reported usable: %v", got)
	}

	// Full recovery: against an empty set, exactly the nodes f makes
	// unusable come back. A dead link costs no node its usability.
	f := NewFaultSet()
	f.KillLink(m.NodeAt(0, 0), m.NodeAt(1, 0))
	f.KillTile(33)
	f.KillRouter(12)
	got = RevivedNodes(m, f, NewFaultSet())
	want = []NodeID{12, 33}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RevivedNodes after full recovery = %v, want %v", got, want)
	}
}

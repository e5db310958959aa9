package mesh

import (
	"errors"
	"testing"
)

// checkRoute asserts a route is a contiguous chain of unit links from src to
// dst that never crosses a dead link or a dead router.
func checkRoute(t *testing.T, m *Mesh, route []Link, src, dst NodeID, f *FaultSet) {
	t.Helper()
	if src == dst {
		if len(route) != 0 {
			t.Fatalf("self route has %d links", len(route))
		}
		return
	}
	if len(route) == 0 {
		t.Fatalf("empty route %d->%d", src, dst)
	}
	if route[0].From != src || route[len(route)-1].To != dst {
		t.Fatalf("route endpoints %d->%d, want %d->%d", route[0].From, route[len(route)-1].To, src, dst)
	}
	for i, l := range route {
		if m.Distance(l.From, l.To) != 1 {
			t.Fatalf("link %d (%d->%d) is not a unit hop", i, l.From, l.To)
		}
		if i > 0 && route[i-1].To != l.From {
			t.Fatalf("route breaks at link %d: %d != %d", i, route[i-1].To, l.From)
		}
		if !f.LinkAlive(l) {
			t.Fatalf("route crosses dead link %d-%d", l.From, l.To)
		}
		if !f.RouterAlive(l.From) || !f.RouterAlive(l.To) {
			t.Fatalf("route crosses dead router on link %d-%d", l.From, l.To)
		}
	}
}

func TestRouteAvoidingDetoursAroundXYFault(t *testing.T) {
	m := MustNew(6, 6)
	src, dst := m.NodeAt(0, 2), m.NodeAt(3, 2)
	f := NewFaultSet()
	// Kill the second link of the XY path (1,2)->(2,2).
	f.KillLink(m.NodeAt(1, 2), m.NodeAt(2, 2))
	xy := m.Route(src, dst)
	hitsDead := false
	for _, l := range xy {
		if !f.LinkAlive(l) {
			hitsDead = true
		}
	}
	if !hitsDead {
		t.Fatal("test setup: the dead link is not on the XY path")
	}
	route, err := m.RouteAvoiding(src, dst, f)
	if err != nil {
		t.Fatal(err)
	}
	checkRoute(t, m, route, src, dst, f)
	if len(route) != m.Distance(src, dst)+2 {
		t.Errorf("detour length %d, want shortest detour %d", len(route), m.Distance(src, dst)+2)
	}
}

func TestRouteAvoidingPrefersXYWhenClean(t *testing.T) {
	m := MustNew(6, 6)
	f := NewFaultSet()
	f.KillLink(m.NodeAt(5, 5), m.NodeAt(4, 5)) // far from the path below
	src, dst := m.NodeAt(0, 0), m.NodeAt(3, 2)
	route, err := m.RouteAvoiding(src, dst, f)
	if err != nil {
		t.Fatal(err)
	}
	xy := m.Route(src, dst)
	if len(route) != len(xy) {
		t.Fatalf("clean XY path detoured: %d links, want %d", len(route), len(xy))
	}
	for i := range xy {
		if route[i] != xy[i] {
			t.Errorf("link %d: RouteAvoiding %v, XY %v", i, route[i], xy[i])
		}
	}
}

func TestRouteAvoidingPartitionedMesh(t *testing.T) {
	m := MustNew(6, 6)
	f := NewFaultSet()
	// Sever every east-west link between columns 2 and 3.
	for y := 0; y < 6; y++ {
		f.KillLink(m.NodeAt(2, y), m.NodeAt(3, y))
	}
	_, err := m.RouteAvoiding(m.NodeAt(0, 0), m.NodeAt(5, 5), f)
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("cross-partition route error = %v, want ErrPartitioned", err)
	}
	// Same-side routes still work.
	route, err := m.RouteAvoiding(m.NodeAt(0, 0), m.NodeAt(2, 5), f)
	if err != nil {
		t.Fatal(err)
	}
	checkRoute(t, m, route, m.NodeAt(0, 0), m.NodeAt(2, 5), f)
}

func TestRouteAvoidingDeadRouterEndpoints(t *testing.T) {
	m := MustNew(6, 6)
	f := NewFaultSet()
	dead := m.NodeAt(2, 2)
	f.KillRouter(dead)
	if _, err := m.RouteAvoiding(dead, m.NodeAt(5, 5), f); !errors.Is(err, ErrPartitioned) {
		t.Errorf("route from dead router: %v, want ErrPartitioned", err)
	}
	if _, err := m.RouteAvoiding(m.NodeAt(0, 0), dead, f); !errors.Is(err, ErrPartitioned) {
		t.Errorf("route to dead router: %v, want ErrPartitioned", err)
	}
	// Routes between live nodes detour around the dead router.
	route, err := m.RouteAvoiding(m.NodeAt(0, 2), m.NodeAt(5, 2), f)
	if err != nil {
		t.Fatal(err)
	}
	checkRoute(t, m, route, m.NodeAt(0, 2), m.NodeAt(5, 2), f)
}

func TestRouteAvoidingDeadTileStillRoutes(t *testing.T) {
	m := MustNew(6, 6)
	f := NewFaultSet()
	mc := m.MemoryControllers()[0]
	f.KillTile(mc) // tile dies, router survives
	if f.NodeUsable(mc) {
		t.Fatal("dead-tile node reported usable")
	}
	// Traffic still flows to and through the node.
	route, err := m.RouteAvoiding(m.NodeAt(3, 3), mc, f)
	if err != nil {
		t.Fatal(err)
	}
	checkRoute(t, m, route, m.NodeAt(3, 3), mc, f)
	if len(route) != m.Distance(m.NodeAt(3, 3), mc) {
		t.Errorf("dead tile forced a detour: %d links, want %d", len(route), m.Distance(m.NodeAt(3, 3), mc))
	}
}

func TestRouteAvoidingDeterministic(t *testing.T) {
	m := MustNew(6, 6)
	f := Inject(m, 7, 4, 1, 0, true)
	for src := NodeID(0); int(src) < m.Nodes(); src++ {
		for dst := NodeID(0); int(dst) < m.Nodes(); dst++ {
			a, errA := m.RouteAvoiding(src, dst, f)
			b, errB := m.RouteAvoiding(src, dst, f)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%d->%d: nondeterministic error: %v vs %v", src, dst, errA, errB)
			}
			if len(a) != len(b) {
				t.Fatalf("%d->%d: nondeterministic route length", src, dst)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%d->%d: nondeterministic link %d", src, dst, i)
				}
			}
			if errA == nil {
				checkRoute(t, m, a, src, dst, f)
			}
		}
	}
}

func TestInjectDeterministicAndNested(t *testing.T) {
	m := MustNew(6, 6)
	a := Inject(m, 42, 3, 1, 1, true)
	b := Inject(m, 42, 3, 1, 1, true)
	if a.String() != b.String() {
		t.Fatalf("same seed differs:\n%s\n%s", a, b)
	}
	// The shuffle prefix nests: level k's dead links are a subset of k+1's.
	small := Inject(m, 42, 2, 0, 0, true)
	big := Inject(m, 42, 3, 0, 0, true)
	for n := NodeID(0); int(n) < m.Nodes(); n++ {
		for _, d := range []NodeID{n + 1, n + NodeID(m.Cols())} {
			if !m.Valid(d) || m.Distance(n, d) != 1 {
				continue
			}
			l := Link{From: n, To: d}
			if !small.LinkAlive(l) && big.LinkAlive(l) {
				t.Fatalf("link %d-%d dead at 2 faults but alive at 3: ladder not nested", n, d)
			}
		}
	}
	if c := Inject(m, 43, 3, 1, 1, true); c.String() == a.String() {
		t.Error("different seeds produced identical fault sets")
	}
}

func TestInjectProtectsMemoryControllers(t *testing.T) {
	m := MustNew(6, 6)
	for seed := int64(1); seed <= 20; seed++ {
		f := Inject(m, seed, 0, 4, 4, true)
		for _, mc := range m.MemoryControllers() {
			if !f.NodeUsable(mc) {
				t.Fatalf("seed %d killed protected MC %d", seed, mc)
			}
		}
		g := Inject(m, seed, 0, 0, 32, false)
		anyMCDead := false
		for _, mc := range m.MemoryControllers() {
			if !g.TileAlive(mc) {
				anyMCDead = true
			}
		}
		if !anyMCDead {
			t.Fatalf("seed %d: 32 unprotected tile kills on a 36-node mesh spared every MC", seed)
		}
	}
}

func TestNearestUsableMC(t *testing.T) {
	m := MustNew(6, 6)
	mcs := m.MemoryControllers()

	// Pristine mesh: agrees with NearestMC everywhere.
	f := NewFaultSet()
	for n := NodeID(0); int(n) < m.Nodes(); n++ {
		got, err := m.NearestUsableMC(n, f)
		if err != nil {
			t.Fatal(err)
		}
		want := m.NearestMC(n)
		if m.Distance(n, got) != m.Distance(n, want) {
			t.Fatalf("node %d: nearest usable MC %d (dist %d), NearestMC %d (dist %d)",
				n, got, m.Distance(n, got), want, m.Distance(n, want))
		}
	}

	// Kill the NW corner's tile: its quadrant drains to another corner.
	f.KillTile(mcs[0])
	got, err := m.NearestUsableMC(NodeID(0), f)
	if err != nil {
		t.Fatal(err)
	}
	if got == mcs[0] {
		t.Fatal("routed L2 misses to a dead-tile MC")
	}

	// All four MCs dead: error.
	for _, mc := range mcs {
		f.KillTile(mc)
	}
	if _, err := m.NearestUsableMC(NodeID(14), f); err == nil {
		t.Fatal("all MCs dead, want error")
	}
}

func TestFaultSetNilSafety(t *testing.T) {
	m := MustNew(6, 6)
	var f *FaultSet
	if !f.Empty() || !f.LinkAlive(Link{0, 1}) || !f.RouterAlive(3) || !f.TileAlive(3) || !f.NodeUsable(3) {
		t.Fatal("nil FaultSet must behave as pristine")
	}
	route, err := m.RouteAvoiding(0, 35, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != m.Distance(0, 35) {
		t.Fatalf("nil fault set route %d links, want XY %d", len(route), m.Distance(0, 35))
	}
}

package mesh

import (
	"testing"
	"testing/quick"
)

func TestNewRejectsTinyMeshes(t *testing.T) {
	for _, dims := range [][2]int{{0, 0}, {1, 1}, {1, 4}, {4, 1}, {-3, 5}} {
		if _, err := New(dims[0], dims[1]); err == nil {
			t.Errorf("New(%d, %d) succeeded, want error", dims[0], dims[1])
		}
	}
	if _, err := New(2, 2); err != nil {
		t.Fatalf("New(2,2): %v", err)
	}
}

func TestNodeAtCoordOfRoundTrip(t *testing.T) {
	m := MustNew(6, 6)
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			n := m.NodeAt(x, y)
			if !m.Valid(n) {
				t.Fatalf("NodeAt(%d,%d) = %d invalid", x, y, n)
			}
			if c := m.CoordOf(n); c.X != x || c.Y != y {
				t.Fatalf("CoordOf(NodeAt(%d,%d)) = %+v", x, y, c)
			}
		}
	}
	if m.NodeAt(6, 0) != InvalidNode || m.NodeAt(0, -1) != InvalidNode {
		t.Error("out-of-range NodeAt should return InvalidNode")
	}
}

func TestDistanceMatchesPaperExample(t *testing.T) {
	m := MustNew(8, 8)
	a := m.NodeAt(1, 2)
	b := m.NodeAt(4, 6)
	if d := m.Distance(a, b); d != 7 {
		t.Errorf("Distance = %d, want 7", d)
	}
	if d := m.Distance(a, a); d != 0 {
		t.Errorf("self distance = %d, want 0", d)
	}
}

func TestDistanceProperties(t *testing.T) {
	m := MustNew(7, 5)
	n := NodeID(m.Nodes())
	clamp := func(v NodeID) NodeID { return ((v % n) + n) % n }
	// Symmetry.
	if err := quick.Check(func(a, b NodeID) bool {
		a, b = clamp(a), clamp(b)
		return m.Distance(a, b) == m.Distance(b, a)
	}, nil); err != nil {
		t.Error(err)
	}
	// Triangle inequality.
	if err := quick.Check(func(a, b, c NodeID) bool {
		a, b, c = clamp(a), clamp(b), clamp(c)
		return m.Distance(a, c) <= m.Distance(a, b)+m.Distance(b, c)
	}, nil); err != nil {
		t.Error(err)
	}
	// Identity of indiscernibles.
	if err := quick.Check(func(a, b NodeID) bool {
		a, b = clamp(a), clamp(b)
		return (m.Distance(a, b) == 0) == (a == b)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryControllersAtCorners(t *testing.T) {
	m := MustNew(6, 4)
	mcs := m.MemoryControllers()
	want := []NodeID{m.NodeAt(0, 0), m.NodeAt(5, 0), m.NodeAt(0, 3), m.NodeAt(5, 3)}
	if len(mcs) != 4 {
		t.Fatalf("got %d MCs, want 4", len(mcs))
	}
	for i, mc := range mcs {
		if mc != want[i] {
			t.Errorf("MC[%d] = %d, want %d", i, mc, want[i])
		}
		if !m.IsMemoryController(mc) {
			t.Errorf("IsMemoryController(%d) = false", mc)
		}
	}
	if m.IsMemoryController(m.NodeAt(2, 2)) {
		t.Error("interior node reported as MC")
	}
}

func TestQuadrantPartition(t *testing.T) {
	m := MustNew(6, 6)
	counts := make(map[int]int)
	for n := NodeID(0); int(n) < m.Nodes(); n++ {
		q := m.Quadrant(n)
		if q < 0 || q > 3 {
			t.Fatalf("Quadrant(%d) = %d", n, q)
		}
		counts[q]++
	}
	for q := 0; q < 4; q++ {
		if counts[q] != 9 {
			t.Errorf("quadrant %d has %d nodes, want 9", q, counts[q])
		}
	}
	// Each corner MC must be in its own quadrant.
	for q := 0; q < 4; q++ {
		mc := m.MCOfQuadrant(q)
		if m.Quadrant(mc) != q {
			t.Errorf("MC %d of quadrant %d is in quadrant %d", mc, q, m.Quadrant(mc))
		}
	}
}

func TestMCForModes(t *testing.T) {
	m := MustNew(6, 6)
	home := m.NodeAt(4, 4) // quadrant 3 (SE)
	// Quadrant / SNC-4: same quadrant as home bank.
	for _, mode := range []ClusterMode{Quadrant, SNC4} {
		mc := m.MCFor(home, 2, mode)
		if m.Quadrant(mc) != m.Quadrant(home) {
			t.Errorf("%v: MC %d not in home quadrant", mode, mc)
		}
	}
	// All-to-all: the channel selects the MC regardless of home.
	seen := make(map[NodeID]bool)
	for ch := 0; ch < 8; ch++ {
		seen[m.MCFor(home, ch, AllToAll)] = true
	}
	if len(seen) != 4 {
		t.Errorf("all-to-all reached %d MCs, want 4", len(seen))
	}
	// Negative channels must not panic and must stay in range.
	if mc := m.MCFor(home, -3, AllToAll); !m.IsMemoryController(mc) {
		t.Errorf("negative channel produced non-MC node %d", mc)
	}
}

func TestNearestMC(t *testing.T) {
	m := MustNew(6, 6)
	if mc := m.NearestMC(m.NodeAt(1, 1)); mc != m.NodeAt(0, 0) {
		t.Errorf("NearestMC(1,1) = %v, want NW corner", m.CoordOf(mc))
	}
	if mc := m.NearestMC(m.NodeAt(4, 5)); mc != m.NodeAt(5, 5) {
		t.Errorf("NearestMC(4,5) = %v, want SE corner", m.CoordOf(mc))
	}
	// Equidistant point breaks ties toward the lower id (NW corner).
	if mc := m.NearestMC(m.NodeAt(2, 2)); mc != m.NodeAt(0, 0) {
		t.Errorf("NearestMC tie = %v, want NW corner", m.CoordOf(mc))
	}
}

func TestClusterModeString(t *testing.T) {
	cases := map[ClusterMode]string{AllToAll: "all-to-all", Quadrant: "quadrant", SNC4: "SNC-4"}
	for mode, want := range cases {
		if got := mode.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", mode, got, want)
		}
	}
	if got := ClusterMode(42).String(); got != "ClusterMode(42)" {
		t.Errorf("unknown mode String() = %q", got)
	}
}

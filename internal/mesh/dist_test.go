package mesh

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

func TestDistanceTableMatchesDistance(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {6, 6}, {8, 5}, {32, 32}} {
		m := MustNew(dims[0], dims[1])
		dt := m.DistanceTable()
		for a := NodeID(0); int(a) < m.Nodes(); a++ {
			ca := m.CoordOf(a)
			for b := NodeID(0); int(b) < m.Nodes(); b++ {
				cb := m.CoordOf(b)
				want := abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
				if got := dt.Between(a, b); got != want || m.Distance(a, b) != want {
					t.Fatalf("%dx%d: Between(%d,%d) = %d, Distance = %d, want %d",
						dims[0], dims[1], a, b, got, m.Distance(a, b), want)
				}
			}
		}
	}
}

// The view is shared read-only; concurrent readers must be safe (this test
// is meaningful under -race).
func TestDistanceTableConcurrent(t *testing.T) {
	m := MustNew(8, 5)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dt := m.DistanceTable()
			for a := NodeID(0); int(a) < m.Nodes(); a++ {
				if dt.Between(a, a) != 0 {
					t.Error("self distance not 0")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// The pristine view is O(N): building a 4,096-node mesh and reading its
// view both ways allocates a few coordinate arrays, not an N x N table
// (which alone would be 4096² entries).
func TestDistanceTableLinearMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := MustNew(64, 64)
	dt := m.DistanceTable()
	if m.AllDistancesAvoiding(nil) != dt {
		t.Fatal("AllDistancesAvoiding(nil) is not the mesh's own view")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("64x64 mesh and its distance view allocated %d bytes, want < 1 MB", got)
	}
	if d := dt.Between(0, NodeID(m.Nodes()-1)); d != 126 {
		t.Fatalf("corner-to-corner distance %d, want 126", d)
	}
}

func TestAllDistancesAvoidingPristineMatchesManhattan(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {6, 6}, {8, 5}} {
		m := MustNew(dims[0], dims[1])
		for _, f := range []*FaultSet{nil, NewFaultSet()} {
			dist := m.AllDistancesAvoiding(f)
			if dist != m.DistanceTable() {
				t.Fatalf("%dx%d: pristine AllDistancesAvoiding is not the mesh's view", dims[0], dims[1])
			}
			for a := NodeID(0); int(a) < m.Nodes(); a++ {
				for b := NodeID(0); int(b) < m.Nodes(); b++ {
					if got, want := dist.Between(a, b), m.Distance(a, b); got != want {
						t.Fatalf("%dx%d: Between(%d,%d) = %d, want %d", dims[0], dims[1], a, b, got, want)
					}
				}
			}
		}
	}
}

// The degraded view agrees with fault-aware routing on every pair: its hop
// count is the length of the route RouteAvoiding takes, and it is -1
// exactly where RouteAvoiding reports a partition.
func TestDistanceAvoidingMatchesAllDistances(t *testing.T) {
	for _, tc := range []struct {
		cols, rows            int
		seed                  int64
		links, routers, tiles int
	}{
		{2, 2, 1, 1, 0, 0},
		{6, 6, 5, 5, 1, 0},
		{6, 6, 9, 12, 3, 2},
		{8, 5, 3, 6, 2, 1},
	} {
		m := MustNew(tc.cols, tc.rows)
		f := Inject(m, tc.seed, tc.links, tc.routers, tc.tiles, true)
		dist := m.AllDistancesAvoiding(f)
		for src := NodeID(0); int(src) < m.Nodes(); src++ {
			for dst := NodeID(0); int(dst) < m.Nodes(); dst++ {
				d := dist.Between(src, dst)
				route, err := m.RouteAvoiding(src, dst, f)
				switch {
				case errors.Is(err, ErrPartitioned):
					if d != -1 {
						t.Fatalf("%dx%d seed %d %d->%d: partitioned but view says %d", tc.cols, tc.rows, tc.seed, src, dst, d)
					}
				case err != nil:
					t.Fatalf("%d->%d: %v", src, dst, err)
				case len(route) != d:
					t.Fatalf("%dx%d seed %d %d->%d: route %d links, view %d", tc.cols, tc.rows, tc.seed, src, dst, len(route), d)
				}
			}
		}
	}
}

func TestAllDistancesAvoidingMemoizedAndInvalidated(t *testing.T) {
	m := MustNew(6, 6)
	f := NewFaultSet()
	f.KillLink(0, 1)

	d1 := m.AllDistancesAvoiding(f)
	d2 := m.AllDistancesAvoiding(f)
	if d1 != d2 {
		t.Error("repeated calls did not return the memoized view")
	}
	if d1 == m.DistanceTable() {
		t.Error("degraded view is the pristine one")
	}
	if d := d1.Between(0, 1); d != 3 {
		t.Errorf("detour 0->1 around dead link = %d, want 3", d)
	}

	// A mutation must invalidate: killing router 1 partitions nothing else
	// but makes node 1 unreachable.
	f.KillRouter(1)
	d3 := m.AllDistancesAvoiding(f)
	if d3 == d1 {
		t.Error("Kill* did not invalidate the memoized view")
	}
	if d := d3.Between(0, 1); d != -1 {
		t.Errorf("dist to dead router = %d, want -1", d)
	}

	// A view memoized for one mesh is not served for another.
	other := MustNew(6, 6)
	if d4 := other.AllDistancesAvoiding(f); d4 == d3 {
		t.Error("memoized view served for a different mesh")
	}
}

func TestAllDistancesAvoidingConcurrent(t *testing.T) {
	m := MustNew(6, 6)
	f := NewFaultSet()
	f.KillLink(7, 13)
	f.KillTile(20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if m.AllDistancesAvoiding(f).Between(7, 13) < 1 {
				t.Error("bad detour distance")
			}
		}()
	}
	wg.Wait()
}

package mesh

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// ErrPartitioned is returned by fault-aware routing when no live path exists
// between two nodes: the surviving links do not connect them.
var ErrPartitioned = errors.New("mesh: no live route between nodes (mesh partitioned)")

// FaultSet records the failed components of a degraded mesh. Three component
// classes can die independently, mirroring how a KNL-class manycore actually
// loses hardware:
//
//   - a dead link no longer carries messages (both directions fail together);
//   - a dead router takes its node out of the network entirely: nothing can
//     be routed through, to, or from that node;
//   - a dead tile loses the node's core, L1 and L2 bank, but its router keeps
//     forwarding traffic (the common KNL floorplan failure: compute is fused
//     off, the mesh stop survives).
//
// A node is usable for computation only when both its tile and its router are
// alive (NodeUsable). All methods are nil-safe: a nil *FaultSet means a
// pristine mesh.
type FaultSet struct {
	deadLinks   map[Link]struct{}
	deadRouters map[NodeID]struct{}
	deadTiles   map[NodeID]struct{}

	// distMu guards the memoized degraded distance view. Repair,
	// validation and the simulator all read the same view; caching it here
	// amortizes the per-node BFS across those passes. Every Kill*
	// mutation invalidates the cache.
	distMu   sync.Mutex
	distMesh *Mesh
	dist     *DistanceTable
}

// NewFaultSet returns an empty fault set.
func NewFaultSet() *FaultSet {
	return &FaultSet{
		deadLinks:   make(map[Link]struct{}),
		deadRouters: make(map[NodeID]struct{}),
		deadTiles:   make(map[NodeID]struct{}),
	}
}

// KillLink marks the link between a and b dead in both directions.
func (f *FaultSet) KillLink(a, b NodeID) {
	f.deadLinks[Link{From: a, To: b}] = struct{}{}
	f.deadLinks[Link{From: b, To: a}] = struct{}{}
	f.invalidateDistances()
}

// KillRouter marks node n's router dead.
func (f *FaultSet) KillRouter(n NodeID) {
	f.deadRouters[n] = struct{}{}
	f.invalidateDistances()
}

// KillTile marks node n's tile (core + caches) dead; its router survives.
// Tiles do not affect routing, but the cache is dropped anyway to keep the
// invalidation rule trivially "any mutation clears it".
func (f *FaultSet) KillTile(n NodeID) {
	f.deadTiles[n] = struct{}{}
	f.invalidateDistances()
}

func (f *FaultSet) invalidateDistances() {
	f.distMu.Lock()
	f.distMesh, f.dist = nil, nil
	f.distMu.Unlock()
}

// Empty reports whether the fault set (nil included) has no faults.
func (f *FaultSet) Empty() bool {
	return f == nil || (len(f.deadLinks) == 0 && len(f.deadRouters) == 0 && len(f.deadTiles) == 0)
}

// LinkAlive reports whether the directed link still carries messages.
func (f *FaultSet) LinkAlive(l Link) bool {
	if f == nil {
		return true
	}
	_, dead := f.deadLinks[l]
	return !dead
}

// RouterAlive reports whether node n's router still forwards traffic.
func (f *FaultSet) RouterAlive(n NodeID) bool {
	if f == nil {
		return true
	}
	_, dead := f.deadRouters[n]
	return !dead
}

// TileAlive reports whether node n's core and caches still work.
func (f *FaultSet) TileAlive(n NodeID) bool {
	if f == nil {
		return true
	}
	_, dead := f.deadTiles[n]
	return !dead
}

// NodeUsable reports whether node n can host computation and data: its tile
// must compute and its router must inject/eject messages.
func (f *FaultSet) NodeUsable(n NodeID) bool {
	return f.TileAlive(n) && f.RouterAlive(n)
}

// DeadLinks returns the number of dead undirected links.
func (f *FaultSet) DeadLinks() int {
	if f == nil {
		return 0
	}
	return len(f.deadLinks) / 2
}

// String summarizes the fault set for reports.
func (f *FaultSet) String() string {
	if f.Empty() {
		return "no faults"
	}
	var parts []string
	if n := f.DeadLinks(); n > 0 {
		links := make([]string, 0, n)
		for l := range f.deadLinks {
			if l.From < l.To {
				links = append(links, fmt.Sprintf("%d-%d", l.From, l.To))
			}
		}
		sort.Strings(links)
		parts = append(parts, fmt.Sprintf("%d dead link(s) [%s]", n, strings.Join(links, " ")))
	}
	if len(f.deadRouters) > 0 {
		parts = append(parts, fmt.Sprintf("%d dead router(s) %v", len(f.deadRouters), sortedNodes(f.deadRouters)))
	}
	if len(f.deadTiles) > 0 {
		parts = append(parts, fmt.Sprintf("%d dead tile(s) %v", len(f.deadTiles), sortedNodes(f.deadTiles)))
	}
	return strings.Join(parts, ", ")
}

func sortedNodes(set map[NodeID]struct{}) []NodeID {
	out := make([]NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Inject builds a deterministic random fault set for mesh m: links undirected
// links, routers dead routers and tiles dead tiles, drawn without replacement
// from a seeded source. When protectMCs is set the memory-controller corner
// nodes keep their tiles and routers (losing every MC makes any schedule
// unserviceable; the evaluation's degraded-mesh sweeps protect them the way a
// real system would prioritize controller RAS).
func Inject(m *Mesh, seed int64, links, routers, tiles int, protectMCs bool) *FaultSet {
	rng := rand.New(rand.NewSource(seed))
	f := NewFaultSet()

	isMC := func(n NodeID) bool { return protectMCs && m.IsMemoryController(n) }

	// Enumerate undirected physical links row-major (east + south per node).
	var all []Link
	for y := 0; y < m.Rows(); y++ {
		for x := 0; x < m.Cols(); x++ {
			n := m.NodeAt(x, y)
			if e := m.NodeAt(x+1, y); e != InvalidNode {
				all = append(all, Link{From: n, To: e})
			}
			if s := m.NodeAt(x, y+1); s != InvalidNode {
				all = append(all, Link{From: n, To: s})
			}
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for i := 0; i < links && i < len(all); i++ {
		f.KillLink(all[i].From, all[i].To)
	}

	pick := func(count int, kill func(NodeID)) {
		perm := rng.Perm(m.Nodes())
		taken := 0
		for _, p := range perm {
			if taken == count {
				break
			}
			n := NodeID(p)
			if isMC(n) {
				continue
			}
			kill(n)
			taken++
		}
	}
	pick(routers, f.KillRouter)
	pick(tiles, f.KillTile)
	return f
}

// RouteAvoiding returns a live route from src to dst under the fault set:
// deterministic XY routing when the XY path survives, otherwise the shortest
// path around the faults (breadth-first over live links and routers, with a
// fixed east/west/south/north expansion order so rerouting is deterministic).
// A message can only be injected or ejected at a node with a live router, so
// a dead router at either endpoint partitions the pair. Dead tiles do not
// block routing: their mesh stops keep forwarding. It returns ErrPartitioned
// when no live path exists.
func (m *Mesh) RouteAvoiding(src, dst NodeID, f *FaultSet) ([]Link, error) {
	if !m.Valid(src) || !m.Valid(dst) {
		return nil, fmt.Errorf("mesh: invalid route endpoints %d -> %d", src, dst)
	}
	if f.Empty() {
		return m.Route(src, dst), nil
	}
	if !f.RouterAlive(src) || !f.RouterAlive(dst) {
		return nil, fmt.Errorf("%w: endpoint router dead on route %d -> %d", ErrPartitioned, src, dst)
	}
	if src == dst {
		return nil, nil
	}

	// Fast path: the XY route survives the faults.
	xy := m.Route(src, dst)
	ok := true
	for _, l := range xy {
		if !f.LinkAlive(l) || !f.RouterAlive(l.To) {
			ok = false
			break
		}
	}
	if ok {
		return xy, nil
	}

	// BFS over live links between live routers; FIFO order yields a shortest
	// detour, fixed neighbour order makes it deterministic.
	prev := make([]NodeID, m.Nodes())
	for i := range prev {
		prev[i] = InvalidNode
	}
	prev[src] = src
	queue := []NodeID{src}
	for len(queue) > 0 && prev[dst] == InvalidNode {
		cur := queue[0]
		queue = queue[1:]
		c := m.CoordOf(cur)
		for _, next := range []NodeID{
			m.NodeAt(c.X+1, c.Y), m.NodeAt(c.X-1, c.Y),
			m.NodeAt(c.X, c.Y+1), m.NodeAt(c.X, c.Y-1),
		} {
			if next == InvalidNode || prev[next] != InvalidNode {
				continue
			}
			if !f.RouterAlive(next) || !f.LinkAlive(Link{From: cur, To: next}) {
				continue
			}
			prev[next] = cur
			queue = append(queue, next)
		}
	}
	if prev[dst] == InvalidNode {
		return nil, fmt.Errorf("%w: %d -> %d", ErrPartitioned, src, dst)
	}
	var rev []Link
	for at := dst; at != src; at = prev[at] {
		rev = append(rev, Link{From: prev[at], To: at})
	}
	route := make([]Link, len(rev))
	for i := range rev {
		route[i] = rev[len(rev)-1-i]
	}
	return route, nil
}

// AllDistancesAvoiding returns the distance view under the fault set:
// Between(a, b) is the live hop count from a to b, or -1 when the pair is
// partitioned. Schedule repair, validation and the simulator read it
// instead of running BFS per query. A pristine mesh (nil or empty f)
// returns the mesh's own DistanceTable; a degraded view is memoized on the
// fault set (cleared by every Kill* mutation). Either way the
// view is shared and read-only.
func (m *Mesh) AllDistancesAvoiding(f *FaultSet) *DistanceTable {
	if f.Empty() {
		return m.dist
	}
	f.distMu.Lock()
	defer f.distMu.Unlock()
	if f.distMesh != m || f.dist == nil {
		f.distMesh, f.dist = m, m.liveHops(f)
	}
	return f.dist
}

// liveHops builds the degraded view: one BFS over live links and routers
// per source node.
func (m *Mesh) liveHops(f *FaultSet) *DistanceTable {
	n := m.Nodes()
	hops := make([]int32, n*n)
	for i := range hops {
		hops[i] = -1
	}
	queue := make([]NodeID, 0, n)
	for a := 0; a < n; a++ {
		if !f.RouterAlive(NodeID(a)) {
			continue
		}
		row := hops[a*n : (a+1)*n]
		row[a] = 0
		queue = append(queue[:0], NodeID(a))
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			c := m.CoordOf(cur)
			for _, next := range []NodeID{
				m.NodeAt(c.X+1, c.Y), m.NodeAt(c.X-1, c.Y),
				m.NodeAt(c.X, c.Y+1), m.NodeAt(c.X, c.Y-1),
			} {
				if next == InvalidNode || row[next] >= 0 {
					continue
				}
				if !f.RouterAlive(next) || !f.LinkAlive(Link{From: cur, To: next}) {
					continue
				}
				row[next] = row[cur] + 1
				queue = append(queue, next)
			}
		}
	}
	return &DistanceTable{n: n, hops: hops}
}

// NearestUsableMC returns the memory controller closest to n (live hop
// count) whose tile and router are both alive, breaking ties toward the
// lower node id. It returns InvalidNode and an error when every MC is dead
// or unreachable — a degraded mesh no schedule can be repaired onto. On a
// pristine mesh (nil f) it is NearestMC.
func (m *Mesh) NearestUsableMC(n NodeID, f *FaultSet) (NodeID, error) {
	dist := m.AllDistancesAvoiding(f)
	best := InvalidNode
	bestD := -1
	for _, mc := range m.mcs {
		if !f.NodeUsable(mc) {
			continue
		}
		d := dist.Between(n, mc)
		if d < 0 {
			continue
		}
		if best == InvalidNode || d < bestD || (d == bestD && mc < best) {
			best, bestD = mc, d
		}
	}
	if best == InvalidNode {
		return InvalidNode, fmt.Errorf("mesh: no usable memory controller reachable from node %d", n)
	}
	return best, nil
}

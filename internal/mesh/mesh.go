// Package mesh models a 2D mesh on-chip network of a manycore processor.
//
// Each node of the mesh contains a core, a private L1 cache and one bank of
// the distributed shared L2 cache. Memory controllers (MCs) are attached to
// the corner nodes, as in the paper's target platform (Figure 1). The package
// provides Manhattan-distance computation, XY routing, cluster modes
// (all-to-all, quadrant, SNC-4, mirroring Intel KNL) and per-link traffic
// accounting used by the timing simulator to estimate contention.
package mesh

import "fmt"

// NodeID identifies a node in the mesh. Nodes are numbered row-major:
// id = y*Cols + x.
type NodeID int

// InvalidNode is returned by lookups that have no answer.
const InvalidNode NodeID = -1

// Coord is the (x, y) location of a node on the mesh, x in [0, Cols),
// y in [0, Rows).
type Coord struct {
	X, Y int
}

// ClusterMode selects how last-level-cache misses are routed to memory
// controllers, mirroring the three KNL cluster modes described in the paper.
type ClusterMode int

const (
	// AllToAll hashes addresses uniformly over every memory controller; a
	// miss may travel to any corner of the chip.
	AllToAll ClusterMode = iota
	// Quadrant guarantees that the home L2 bank (tag directory) and the
	// servicing memory controller reside in the same quadrant of the mesh.
	Quadrant
	// SNC4 additionally constrains the requesting core to the same quadrant
	// as the directory and the memory controller (sub-NUMA clustering).
	SNC4
)

// String returns the KNL name of the cluster mode.
func (m ClusterMode) String() string {
	switch m {
	case AllToAll:
		return "all-to-all"
	case Quadrant:
		return "quadrant"
	case SNC4:
		return "SNC-4"
	}
	return fmt.Sprintf("ClusterMode(%d)", int(m))
}

// Mesh is an immutable description of a Cols x Rows 2D mesh with memory
// controllers attached to the four corner nodes.
type Mesh struct {
	cols, rows int
	mcs        []NodeID

	// dist is the pristine distance view, built in New and read-only
	// afterwards, so it is shared across worker goroutines without locking.
	dist *DistanceTable
}

// New creates a mesh with the given dimensions. Both dimensions must be at
// least 2 so that the four corners are distinct memory controller sites.
func New(cols, rows int) (*Mesh, error) {
	if cols < 2 || rows < 2 {
		return nil, fmt.Errorf("mesh: dimensions %dx%d too small (need >= 2x2)", cols, rows)
	}
	m := &Mesh{cols: cols, rows: rows}
	m.dist = m.coordinates()
	m.mcs = []NodeID{
		m.NodeAt(0, 0),
		m.NodeAt(cols-1, 0),
		m.NodeAt(0, rows-1),
		m.NodeAt(cols-1, rows-1),
	}
	return m, nil
}

// MustNew is like New but panics on error; intended for tests and fixed
// configuration tables.
func MustNew(cols, rows int) *Mesh {
	m, err := New(cols, rows)
	if err != nil {
		panic(err)
	}
	return m
}

// Cols returns the number of columns in the mesh.
func (m *Mesh) Cols() int { return m.cols }

// Rows returns the number of rows in the mesh.
func (m *Mesh) Rows() int { return m.rows }

// Nodes returns the total number of nodes.
func (m *Mesh) Nodes() int { return m.cols * m.rows }

// NodeAt returns the node at column x, row y.
func (m *Mesh) NodeAt(x, y int) NodeID {
	if x < 0 || x >= m.cols || y < 0 || y >= m.rows {
		return InvalidNode
	}
	return NodeID(y*m.cols + x)
}

// CoordOf returns the (x, y) location of node n.
func (m *Mesh) CoordOf(n NodeID) Coord {
	i := int(n)
	return Coord{X: i % m.cols, Y: i / m.cols}
}

// Valid reports whether n names a node of this mesh.
func (m *Mesh) Valid(n NodeID) bool {
	return n >= 0 && int(n) < m.Nodes()
}

// Distance returns the Manhattan distance between nodes a and b: the minimum
// number of network links a message must traverse (MD in the paper).
func (m *Mesh) Distance(a, b NodeID) int {
	return m.dist.Between(a, b)
}

// DistanceTable is the one distance view of a mesh: every layer asks it
// for the hops between two nodes through Between. On a pristine mesh it
// holds each node's coordinates (O(N)) and answers with the Manhattan
// distance; on a degraded mesh (AllDistancesAvoiding) it holds one flat
// table of live hop counts, -1 where the pair is partitioned. A view is
// immutable once built and safe for concurrent readers; `make race` fails
// on a write that races one.
type DistanceTable struct {
	n    int     // mesh nodes
	x, y []int32 // pristine: node coordinates; nil on a degraded view
	hops []int32 // degraded: n x n live hop counts, -1 = partitioned
}

// coordinates builds the mesh's pristine view.
func (m *Mesh) coordinates() *DistanceTable {
	n := m.Nodes()
	t := &DistanceTable{n: n, x: make([]int32, n), y: make([]int32, n)}
	for i := 0; i < n; i++ {
		t.x[i], t.y[i] = int32(i%m.cols), int32(i/m.cols)
	}
	return t
}

// DistanceTable returns the mesh's pristine distance view, built with the
// mesh. The view is shared and read-only; calls allocate nothing.
func (m *Mesh) DistanceTable() *DistanceTable {
	return m.dist
}

// Nodes returns the number of mesh nodes the view covers.
func (t *DistanceTable) Nodes() int { return t.n }

// Between returns the hops from node a to node b: their Manhattan distance
// on a pristine view, the live-route hop count (-1 when partitioned) on a
// degraded one.
func (t *DistanceTable) Between(a, b NodeID) int {
	if t.hops != nil {
		return int(t.hops[int(a)*t.n+int(b)])
	}
	return abs(int(t.x[a]-t.x[b])) + abs(int(t.y[a]-t.y[b]))
}

// MemoryControllers returns the nodes hosting memory controllers, in the
// fixed order NW, NE, SW, SE.
func (m *Mesh) MemoryControllers() []NodeID {
	out := make([]NodeID, len(m.mcs))
	copy(out, m.mcs)
	return out
}

// IsMemoryController reports whether node n hosts a memory controller.
func (m *Mesh) IsMemoryController(n NodeID) bool {
	for _, mc := range m.mcs {
		if mc == n {
			return true
		}
	}
	return false
}

// Quadrant returns the quadrant index (0..3) of node n, dividing the mesh
// into four equal sections: 0=NW, 1=NE, 2=SW, 3=SE.
func (m *Mesh) Quadrant(n NodeID) int {
	c := m.CoordOf(n)
	q := 0
	if c.X >= (m.cols+1)/2 {
		q |= 1
	}
	if c.Y >= (m.rows+1)/2 {
		q |= 2
	}
	return q
}

// MCOfQuadrant returns the memory controller located in quadrant q.
func (m *Mesh) MCOfQuadrant(q int) NodeID {
	// The MC order NW, NE, SW, SE matches the quadrant encoding.
	return m.mcs[q&3]
}

// MCFor returns the memory controller that services an L2 miss, given the
// home bank of the address, the hashed channel index of the address, and the
// cluster mode.
//
//   - AllToAll: the channel hash picks any of the four MCs.
//   - Quadrant and SNC4: the MC in the home bank's quadrant. (SNC-4
//     additionally restricts which home banks an address may map to; that
//     constraint is applied by the address mapping layer, not here.)
func (m *Mesh) MCFor(home NodeID, channel int, mode ClusterMode) NodeID {
	switch mode {
	case AllToAll:
		return m.mcs[((channel%len(m.mcs))+len(m.mcs))%len(m.mcs)]
	default:
		return m.MCOfQuadrant(m.Quadrant(home))
	}
}

// NearestMC returns the memory controller closest (Manhattan distance) to
// node n, breaking ties toward the lower node id.
func (m *Mesh) NearestMC(n NodeID) NodeID {
	mc, _ := m.NearestUsableMC(n, nil) // every MC is usable on a pristine mesh
	return mc
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

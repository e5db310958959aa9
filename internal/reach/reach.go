// Package reach answers happens-before (reachability) queries over task
// DAGs with dense integer vertex IDs. It replaces the O(n²/64)-word
// ancestor-bitset closure the verifier used before: memory there grew
// quadratically, which is why schedules above 20k tasks had to be refused.
// It has two users: the verifier's happens-before index (verify.Closure,
// wait arcs plus per-node program order), and core.ReduceSyncs, which
// walks the wait arcs first and builds an arc-only index over the waited-on
// tasks only when its walk budget runs out on a long carried chain.
//
// The index is a chain decomposition in the style of Jagadish's
// path-compression labeling: vertices are greedily covered by chains
// (paths) following a topological order, and every vertex v stores, for
// each indexed chain c, the highest chain position among v's ancestors on
// c. A reachability query a ⤳ b then reduces to one array compare:
// chainPos(a) < up[b][chainOf(a)] (labels store position+1). The index
// costs O(n · chains) instead of O(n²). The greedy cover extends the chain
// of the first listed predecessor that is still a chain tail, so the
// number of chains depends on edge order: when the graph contains disjoint
// paths covering every vertex and each vertex's first edge comes from its
// path predecessor, there are at most as many chains as paths. The
// verifier adds per-node program order before wait arcs, which gives at
// most one chain per mesh node in use.
//
// The Builder keeps the edges in two flat slices and Build groups them into
// compressed (CSR) predecessor and successor lists, each vertex's list in
// Edge order, so the decomposition is the same as with per-vertex lists and
// a build allocates a fixed handful of slices.
//
// Graphs whose chain count exceeds the configured budget keep the longest
// chains indexed and answer queries out of the sparse residue with an
// on-demand BFS that prunes by topological position and shortcuts through
// the indexed chains — correctness never depends on the budget, only query
// cost does.
package reach

import "slices"

// Builder accumulates edges, in Edge order, before Build freezes them into
// an Index.
type Builder struct {
	n        int
	from, to []int32
}

// NewBuilder returns a builder for a graph with n vertices, 0..n-1.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Grow makes room for edges more edges, so a caller that knows its edge
// count up front fills the two slices without regrowing them.
func (b *Builder) Grow(edges int) {
	b.from = slices.Grow(b.from, edges)
	b.to = slices.Grow(b.to, edges)
}

// Edge records from -> to. Out-of-range endpoints and self-loops are
// ignored, mirroring how the verifier tolerates corrupted WaitFor entries
// (structural validation reports them separately).
func (b *Builder) Edge(from, to int) {
	if from < 0 || to < 0 || from >= b.n || to >= b.n || from == to {
		return
	}
	b.from = append(b.from, int32(from))
	b.to = append(b.to, int32(to))
}

// DefaultMaxChains is the indexed-chain budget Build applies when the
// caller passes maxChains <= 0. At int32 granularity the index then costs
// at most n*DefaultMaxChains*4 bytes.
const DefaultMaxChains = 256

// csr groups the edges by key: the list of vertex v is adj[start[v]:start[v+1]],
// holding val of v's edges in Edge order.
func csr(n int, key, val []int32) (start, adj []int32) {
	start = make([]int32, n+1)
	for _, k := range key {
		start[k+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	adj = make([]int32, len(key))
	fill := append([]int32(nil), start[:n]...)
	for e, k := range key {
		adj[fill[k]] = val[e]
		fill[k]++
	}
	return start, adj
}

// Build freezes the graph into an Index. At most maxChains chains (the
// longest ones) get O(1) query labels; the rest fall back to BFS
// (maxChains <= 0 applies DefaultMaxChains). When the graph has a cycle
// the index is nil and the second result lists the (capped) IDs of
// vertices stuck on or behind the cycle.
//
// The builder must not be reused after Build.
func (b *Builder) Build(maxChains int) (*Index, []int) {
	n := b.n
	predStart, preds := csr(n, b.to, b.from)
	succStart, succs := csr(n, b.from, b.to)

	// Topological order via Kahn's algorithm, with order doubling as the
	// FIFO queue; a shortfall means a cycle.
	indeg := make([]int32, n)
	order := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] = predStart[i+1] - predStart[i]; indeg[i] == 0 {
			order = append(order, int32(i))
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, s := range succs[succStart[v]:succStart[v+1]] {
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) != n {
		const maxListed = 16
		var stuck []int
		for i := 0; i < n && len(stuck) < maxListed; i++ {
			if indeg[i] > 0 {
				stuck = append(stuck, i)
			}
		}
		return nil, stuck
	}

	ix := &Index{
		n:         n,
		pos:       make([]int32, n),
		chain:     make([]int32, n),
		cpos:      make([]int32, n),
		succStart: succStart,
		succs:     succs,
		seen:      make([]uint32, n),
	}
	for i, v := range order {
		ix.pos[v] = int32(i)
	}

	// Greedy chain decomposition: in topological order, append each vertex
	// to the chain of its first predecessor (in Edge order) that is
	// currently a chain tail (so chains are genuine paths), else start a
	// new chain. When every vertex's first edge is its path predecessor, a
	// path's chain can only be taken over by a vertex with no free path
	// predecessor of its own, and each take-over leaves one displaced
	// vertex, so there are never more chains than paths.
	tail := make([]int32, 0, 64)   // chain -> current tail vertex
	length := make([]int32, 0, 64) // chain -> length
	for _, v := range order {
		placed := false
		for _, p := range preds[predStart[v]:predStart[v+1]] {
			if c := ix.chain[p]; tail[c] == p {
				ix.chain[v] = c
				ix.cpos[v] = ix.cpos[p] + 1
				tail[c] = v
				length[c]++
				placed = true
				break
			}
		}
		if !placed {
			c := int32(len(tail))
			ix.chain[v] = c
			ix.cpos[v] = 0
			tail = append(tail, v)
			length = append(length, 1)
		}
	}

	// Renumber chains by descending length (stable) so the budget keeps
	// the chains that cover the most vertices; everything beyond the
	// budget is residue answered by BFS.
	if maxChains <= 0 {
		maxChains = DefaultMaxChains
	}
	nchains := len(tail)
	byLen := make([]int32, nchains)
	for i := range byLen {
		byLen[i] = int32(i)
	}
	// Counting-free stable sort by length descending (insertion-style
	// would be O(c²)); chains are few, use a simple sort.
	sortChainsByLength(byLen, length)
	renum := make([]int32, nchains)
	for newID, oldID := range byLen {
		renum[oldID] = int32(newID)
	}
	for v := range ix.chain {
		ix.chain[v] = renum[ix.chain[v]]
	}
	ix.indexed = nchains
	if ix.indexed > maxChains {
		ix.indexed = maxChains
	}

	// Ancestor labels, in topological order: up[v][c] is one past the
	// highest position on indexed chain c among v's ancestors *including v
	// itself* (0: none) — self-inclusion makes same-chain queries fall out
	// of the same compare, and the one-past encoding makes the zeroed
	// table the initial state. The first predecessor's row is copied, not
	// merged into zeros.
	k := ix.indexed
	ix.up = make([]int32, n*k)
	for _, v := range order {
		row := ix.up[int(v)*k : int(v)*k+k]
		for i, p := range preds[predStart[v]:predStart[v+1]] {
			prow := ix.up[int(p)*k : int(p)*k+k]
			if i == 0 {
				copy(row, prow)
				continue
			}
			for c, pc := range prow {
				row[c] = max(row[c], pc)
			}
		}
		if c := ix.chain[v]; int(c) < k {
			row[c] = ix.cpos[v] + 1
		}
	}
	return ix, nil
}

// sortChainsByLength stably sorts chain IDs by descending length.
func sortChainsByLength(ids []int32, length []int32) {
	// Simple bottom-up merge sort keeps it allocation-light and stable
	// without pulling in sort.SliceStable's reflection.
	tmp := make([]int32, len(ids))
	for width := 1; width < len(ids); width *= 2 {
		for lo := 0; lo < len(ids); lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > len(ids) {
				mid = len(ids)
			}
			if hi > len(ids) {
				hi = len(ids)
			}
			i, j, o := lo, mid, lo
			for i < mid && j < hi {
				if length[ids[j]] > length[ids[i]] {
					tmp[o] = ids[j]
					j++
				} else {
					tmp[o] = ids[i]
					i++
				}
				o++
			}
			for i < mid {
				tmp[o] = ids[i]
				i++
				o++
			}
			for j < hi {
				tmp[o] = ids[j]
				j++
				o++
			}
			copy(ids[lo:hi], tmp[lo:hi])
		}
	}
}

// Index answers reachability queries. It reuses internal scratch for the
// BFS fallback, so a single Index must not be queried concurrently.
type Index struct {
	n       int
	pos     []int32 // topological position
	chain   []int32 // chain ID (IDs < indexed have O(1) labels)
	cpos    []int32 // position within the chain
	indexed int     // number of labeled chains
	up      []int32 // n×indexed ancestor labels (chain position+1), row-major

	// succs[succStart[v]:succStart[v+1]] are v's successors, for the BFS
	// fallback.
	succStart, succs []int32

	stamp uint32
	seen  []uint32
	queue []int32
}

// Len returns the number of vertices.
func (ix *Index) Len() int { return ix.n }

// Chains returns (total, indexed) chain counts — introspection for tests
// and memory accounting.
func (ix *Index) Chains() (total, indexed int) {
	total = 0
	for _, c := range ix.chain {
		if int(c)+1 > total {
			total = int(c) + 1
		}
	}
	return total, ix.indexed
}

// Reaches reports whether a == b or a path a ⤳ b exists. Out-of-range
// vertices are unreachable.
func (ix *Index) Reaches(a, b int) bool {
	if a == b {
		return a >= 0 && a < ix.n
	}
	if a < 0 || b < 0 || a >= ix.n || b >= ix.n {
		return false
	}
	if ix.pos[a] >= ix.pos[b] {
		return false // topological order embeds the partial order
	}
	if c := ix.chain[a]; int(c) < ix.indexed {
		return ix.up[b*ix.indexed+int(c)] > ix.cpos[a]
	}
	return ix.bfs(a, b)
}

// bfs is the residue fallback: walk successors of a, pruning vertices at
// or past b's topological position, and shortcut to success through any
// visited vertex whose indexed label already proves it an ancestor of b.
func (ix *Index) bfs(a, b int) bool {
	ix.stamp++
	if ix.stamp == 0 { // wrapped: reset stamps
		for i := range ix.seen {
			ix.seen[i] = 0
		}
		ix.stamp = 1
	}
	st := ix.stamp
	q := ix.queue[:0]
	ix.seen[a] = st
	q = append(q, int32(a))
	pb := ix.pos[b]
	bRow := ix.up[b*ix.indexed : b*ix.indexed+ix.indexed]
	for len(q) > 0 {
		u := q[len(q)-1]
		q = q[:len(q)-1]
		for _, s := range ix.succs[ix.succStart[u]:ix.succStart[u+1]] {
			if int(s) == b {
				ix.queue = q
				return true
			}
			if ix.pos[s] >= pb || ix.seen[s] == st {
				continue
			}
			if c := ix.chain[s]; int(c) < ix.indexed && bRow[c] > ix.cpos[s] {
				ix.queue = q
				return true // s is an ancestor of b by its label
			}
			ix.seen[s] = st
			q = append(q, s)
		}
	}
	ix.queue = q
	return false
}

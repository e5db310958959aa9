package core

import (
	"sort"

	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/par"
)

// operandInfo is the located form of one input reference: where the compiler
// believes the line lives (home bank or MC) plus any nodes whose L1 holds a
// copy because an earlier subcomputation in the same window fetched it (the
// variable2node map of Algorithm 1).
type operandInfo struct {
	loc        LineLoc
	id         int32 // loc.Line's dense line ID in the nest's location trace
	reuseNodes []mesh.NodeID
}

// PlanVertex is a site in a statement's gather tree: a mesh node where one
// or more input lines are resident and (usually) a partial combine executes.
type PlanVertex struct {
	// Node is the mesh node of the vertex.
	Node mesh.NodeID
	// Lines are the input lines resident at this vertex (home bank, MC, or
	// reused L1 copy), gathered locally at zero network cost.
	Lines []uint64
	// ReusedLines is the subset of Lines satisfied from an L1 copy left by
	// an earlier subcomputation in the window.
	ReusedLines []uint64
	// MissLines is the subset of Lines that actually miss in the L2 and are
	// served from DRAM (the compiler's *prediction* decides placement — the
	// From node — but the service cost follows the modeled ground truth).
	MissLines []uint64
	// LineIDs are the dense line IDs of Lines, index for index: the
	// scheduling pass keys its per-line state by them.
	LineIDs []int32
	// IsStore marks the vertex holding the statement's output home.
	IsStore bool
}

// PlanEdge is a tree edge between two vertices; Weight is the Manhattan
// distance its single partial-result transfer traverses.
type PlanEdge struct {
	From, To int
	Weight   int
}

// StatementPlan is the result of single-statement splitting: the spanning
// tree over the nodes holding the statement's data, rooted at the store
// vertex.
type StatementPlan struct {
	Vertices []PlanVertex
	Edges    []PlanEdge
	// Root is the index of the store vertex.
	Root int
	// Movement is the statement's optimized data movement: the sum of tree
	// edge weights (Equation 1 with unit line size).
	Movement int
	// ReuseHits counts operands satisfied from a reused L1 copy.
	ReuseHits int
}

// planItem is a component during level-based MST construction: either a
// single unpinned leaf operand (its located info supplies the candidate
// nodes — reuse copies first, primary location last), or a pinned set of
// concrete vertices (a completed inner group, or already-pinned leaves).
type planItem struct {
	pinned  bool
	info    operandInfo // unpinned leaf: primary location + reuse copies
	vidx    int         // unpinned leaf: vertex index reserved for it
	members []int       // pinned: vertex indices of the component
}

// candCount/cand enumerate an unpinned leaf's candidate nodes in the fixed
// order the MST commits to them: the reuse copies first (L1 hits, preferred
// at equal distance), then the primary location.
func (it *planItem) candCount() int { return len(it.info.reuseNodes) + 1 }

func (it *planItem) cand(i int) mesh.NodeID {
	if i < len(it.info.reuseNodes) {
		return it.info.reuseNodes[i]
	}
	return it.info.loc.Node()
}

// reusableAt reports whether pinning the leaf at n realizes an L1 reuse.
func (it *planItem) reusableAt(n mesh.NodeID) bool {
	for _, r := range it.info.reuseNodes {
		if r == n {
			return true
		}
	}
	return false
}

// planBuilder performs single-statement splitting. One builder is reused
// across every statement instance of a scheduling pass (per-worker state
// under the par ownership rule): vertices, edges, items and the component
// scratch all retain their backing arrays between build calls, so the
// steady-state instance loop allocates only what escapes into the schedule.
type planBuilder struct {
	dt       *mesh.DistanceTable
	vertices []PlanVertex
	edges    []PlanEdge
	reuse    int
	plan     StatementPlan

	// itemPool arena-allocates planItems; stack holds the live items of the
	// in-progress levels (each level is a contiguous window of it).
	itemPool []*planItem
	nItems   int
	stack    []*planItem
	comp     []int
	pairs    []pairDist
}

// newItem returns a reset item from the arena.
func (b *planBuilder) newItem() *planItem {
	if b.nItems < len(b.itemPool) {
		it := b.itemPool[b.nItems]
		b.nItems++
		it.pinned = false
		it.info = operandInfo{}
		it.vidx = 0
		it.members = it.members[:0]
		return it
	}
	it := &planItem{}
	b.itemPool = append(b.itemPool, it)
	b.nItems++
	return it
}

// newVertex appends a vertex, reusing the slot's line slices when the
// backing array still holds a previous instance's entry.
func (b *planBuilder) newVertex(node mesh.NodeID, isStore bool) int {
	idx := len(b.vertices)
	if idx < cap(b.vertices) {
		b.vertices = b.vertices[:idx+1]
		v := &b.vertices[idx]
		v.Node, v.IsStore = node, isStore
		v.Lines = v.Lines[:0]
		v.ReusedLines = v.ReusedLines[:0]
		v.MissLines = v.MissLines[:0]
		v.LineIDs = v.LineIDs[:0]
	} else {
		b.vertices = append(b.vertices, PlanVertex{Node: node, IsStore: isStore})
	}
	return idx
}

// buildPlan performs single-statement splitting (Algorithm 1, lines 1-32)
// with a throwaway builder; the instance loop uses a long-lived builder's
// build method instead.
func buildPlan(dt *mesh.DistanceTable, set *ir.SetNode, ops func(*ir.Ref) operandInfo, store LineLoc) *StatementPlan {
	b := &planBuilder{dt: dt}
	return b.build(set, ops, store)
}

// build runs one split: level-based Kruskal over the nested variable sets,
// innermost first, with completed sets treated as single components, and the
// store location joined at the outermost level. The returned plan aliases
// the builder's buffers and is valid until the next build call.
func (b *planBuilder) build(set *ir.SetNode, ops func(*ir.Ref) operandInfo, store LineLoc) *StatementPlan {
	b.vertices = b.vertices[:0]
	b.edges = b.edges[:0]
	b.reuse = 0
	b.nItems = 0
	b.stack = b.stack[:0]

	// The store node participates in the outermost MST as a regular vertex
	// (Figure 4 includes the A(i) vertex), so collect the top-level items and
	// run the outermost Kruskal over operands and store together.
	b.collectItems(set, ops)
	storeIdx := b.newVertex(store.Home, true)
	sit := b.newItem()
	sit.pinned = true
	sit.members = append(sit.members, storeIdx)
	b.stack = append(b.stack, sit)
	b.mstOver(0)

	movement := 0
	for _, e := range b.edges {
		movement += e.Weight
	}
	b.plan = StatementPlan{
		Vertices:  b.vertices,
		Edges:     b.edges,
		Root:      storeIdx,
		Movement:  movement,
		ReuseHits: b.reuse,
	}
	return &b.plan
}

// collectItems turns the elements of one nested set into MST items pushed on
// the level stack: leaves become candidate-set items (deduplicated by line),
// inner groups are recursively collapsed into single pinned components
// (innermost-first order of Algorithm 1).
func (b *planBuilder) collectItems(group *ir.SetNode, ops func(*ir.Ref) operandInfo) {
	start := len(b.stack)
	for _, el := range group.Group {
		if el.IsLeaf() {
			info := ops(el.Ref)
			if b.lineSeen(start, info.loc.Line) {
				continue // one copy of the line suffices
			}
			it := b.newItem()
			it.info = info
			it.vidx = b.newVertex(mesh.InvalidNode, false)
			b.setLine(it.vidx, info)
			b.stack = append(b.stack, it)
		} else {
			b.stack = append(b.stack, b.processGroup(el, ops))
		}
	}
}

// lineSeen reports whether an unpinned leaf for the line is already among
// the current level's items (the stack window starting at start).
func (b *planBuilder) lineSeen(start int, line uint64) bool {
	for _, it := range b.stack[start:] {
		if !it.pinned && it.info.loc.Line == line {
			return true
		}
	}
	return false
}

// processGroup collapses one nested set into a single pinned component by
// building its internal MST.
func (b *planBuilder) processGroup(group *ir.SetNode, ops func(*ir.Ref) operandInfo) *planItem {
	start := len(b.stack)
	b.collectItems(group, ops)
	if len(b.stack) == start {
		// A group of literals only; represent as an empty pinned component
		// anchored nowhere — mstOver skips empty components.
		it := b.newItem()
		it.pinned = true
		return it
	}
	return b.mstOver(start)
}

// setLine records the operand's line on its vertex; reuse/miss accounting is
// finalized when the vertex is pinned.
func (b *planBuilder) setLine(vidx int, info operandInfo) {
	v := &b.vertices[vidx]
	v.Lines = append(v.Lines, info.loc.Line)
	v.LineIDs = append(v.LineIDs, info.id)
	if !info.loc.ActualHit {
		v.MissLines = append(v.MissLines, info.loc.Line)
	}
}

// pin fixes an unpinned leaf item at node n, turning it into a concrete
// single-vertex component.
func (b *planBuilder) pin(it *planItem, n mesh.NodeID) {
	if it.pinned {
		return
	}
	b.vertices[it.vidx].Node = n
	if it.reusableAt(n) {
		v := &b.vertices[it.vidx]
		v.ReusedLines = append(v.ReusedLines, v.Lines...)
		// A reused copy sits in an L1; it is no longer an MC fetch.
		v.MissLines = v.MissLines[:0]
		b.reuse += len(v.Lines)
	}
	it.pinned = true
	it.members = append(it.members[:0], it.vidx)
}

// itemLen/itemNode enumerate the nodes an item currently offers for
// connection without materializing a slice: candidates for unpinned leaves,
// member vertex locations for pinned components.
func (b *planBuilder) itemLen(it *planItem) int {
	if !it.pinned {
		return it.candCount()
	}
	return len(it.members)
}

func (b *planBuilder) itemNode(it *planItem, i int) mesh.NodeID {
	if !it.pinned {
		return it.cand(i)
	}
	return b.vertices[it.members[i]].Node
}

// vertexAt returns the index of the member vertex of a pinned item located
// at node n (the attachment point an edge realized).
func (b *planBuilder) vertexAt(it *planItem, n mesh.NodeID) int {
	for _, vi := range it.members {
		if b.vertices[vi].Node == n {
			return vi
		}
	}
	return it.members[0]
}

// mstOver runs the MST construction over the items of one level — the stack
// window starting at start: repeatedly connect the two components with the
// minimum realizable distance (Kruskal on the component graph, with
// candidate-set vertices pinned as edges commit to them). The level is
// popped and the merged component returned.
func (b *planBuilder) mstOver(start int) *planItem {
	items := b.stack[start:]
	// Drop empty components (literal-only groups).
	live := items[:0]
	for _, it := range items {
		if !it.pinned || len(it.members) > 0 {
			live = append(live, it)
		}
	}
	items = live
	pop := func() { b.stack = b.stack[:start] }
	if len(items) == 0 {
		pop()
		it := b.newItem()
		it.pinned = true
		return it
	}
	if len(items) == 1 {
		b.pinDefault(items[0])
		it := items[0]
		pop()
		return it
	}

	b.comp = b.comp[:0] // item index -> component id
	for i := range items {
		b.comp = append(b.comp, i)
	}
	comp := b.comp
	// pairs[i*n+j] (i < j) caches closestPair(items[i], items[j]). An
	// item's nodes change only when a commit pins it, so each level computes
	// every pair once and a commit refreshes only the pairs of the endpoints
	// it pinned; the scan below still picks the lexicographic first minimum.
	n := len(items)
	if cap(b.pairs) < n*n {
		b.pairs = make([]pairDist, n*n)
	}
	pairs := b.pairs[:n*n]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs[i*n+j] = b.closestPair(items[i], items[j])
		}
	}
	remaining := n
	for remaining > 1 {
		bi, bj := -1, -1
		best := 1 << 30
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if comp[i] != comp[j] && pairs[i*n+j].d < best {
					best, bi, bj = pairs[i*n+j].d, i, j
				}
			}
		}
		// Commit: pin endpoints and add the concrete edge.
		bp := pairs[bi*n+bj]
		pinned1, pinned2 := items[bi].pinned, items[bj].pinned
		b.pin(items[bi], bp.n1)
		b.pin(items[bj], bp.n2)
		v1 := b.vertexAt(items[bi], bp.n1)
		v2 := b.vertexAt(items[bj], bp.n2)
		b.edges = append(b.edges, PlanEdge{From: v1, To: v2, Weight: best})
		// Merge components.
		from, to := comp[bj], comp[bi]
		for k := range comp {
			if comp[k] == from {
				comp[k] = to
			}
		}
		remaining--
		if !pinned1 {
			b.refreshPairs(items, pairs, bi)
		}
		if !pinned2 {
			b.refreshPairs(items, pairs, bj)
		}
	}
	// Collapse all items into one pinned component.
	merged := b.newItem()
	merged.pinned = true
	for _, it := range items {
		b.pinDefault(it)
		merged.members = append(merged.members, it.members...)
	}
	sort.Ints(merged.members)
	pop()
	return merged
}

// refreshPairs recomputes the cached pairs of item k with every item still in
// another component (pairs within one component are never read again).
func (b *planBuilder) refreshPairs(items []*planItem, pairs []pairDist, k int) {
	n := len(items)
	for i := 0; i < n; i++ {
		if b.comp[i] == b.comp[k] {
			continue
		}
		lo, hi := min(i, k), max(i, k)
		pairs[lo*n+hi] = b.closestPair(items[lo], items[hi])
	}
}

// pinDefault pins a still-unpinned leaf to its primary location (no edge
// ever constrained it — e.g. a single-operand statement).
func (b *planBuilder) pinDefault(it *planItem) {
	if !it.pinned {
		b.pin(it, it.info.loc.Node()) // primary location is the last candidate
	}
}

// pairDist is the closest node pair between two items and its distance.
type pairDist struct {
	n1, n2 mesh.NodeID
	d      int
}

// closestPair returns the node pair (one from each item) with minimum
// Manhattan distance, breaking ties deterministically by (node1, node2).
func (b *planBuilder) closestPair(a, c *planItem) pairDist {
	var bn1, bn2 mesh.NodeID
	best := 1 << 30
	an, cn := b.itemLen(a), b.itemLen(c)
	for i := 0; i < an; i++ {
		n1 := b.itemNode(a, i)
		for j := 0; j < cn; j++ {
			n2 := b.itemNode(c, j)
			d := b.dt.Between(n1, n2)
			if d < best || (d == best && (n1 < bn1 || (n1 == bn1 && n2 < bn2))) {
				best, bn1, bn2 = d, n1, n2
			}
		}
	}
	return pairDist{bn1, bn2, best}
}

// planRange is the number of consecutive instances one worker of
// buildPlans plans with one builder. Every instance owns fixed slab
// regions, so the range size and the worker count never change a plan.
const planRange = 256

// planSlab holds the reuse-free plan and analysis of every instance of a
// nest, in flat per-nest slabs. Each instance owns fixed regions, so ranges
// build concurrently without sharing a slot: with n leaves, whose lines sit
// at trace offset off, instance k owns the line slots [off, off+n) and the
// vertex slots [off+k, off+k+n+1), since a plan has at most one vertex per
// leaf plus the store's, and each leaf vertex holds one line. Its analysis
// arrays take five int slots per vertex slot. Every list is a sub-slice
// capped at its length. The plans keep no Edges: the passes read only the
// tree view. A slab is written once, before the sweep's fan-out, and only
// read after it.
type planSlab struct {
	plans []StatementPlan
	ans   []PlanAnalysis
	verts []PlanVertex
	lines []uint64
	miss  []uint64
	ids   []int32
	ints  []int
	kids  [][]int
}

// buildPlans builds the slab of every instance in tr on the worker pool,
// one planBuilder per range of planRange instances.
func buildPlans(tr *locTrace, dt *mesh.DistanceTable, jobs int) (*planSlab, error) {
	n := len(tr.stores)
	nVerts := len(tr.leaves) + n
	s := &planSlab{
		plans: make([]StatementPlan, n),
		ans:   make([]PlanAnalysis, n),
		verts: make([]PlanVertex, nVerts),
		lines: make([]uint64, len(tr.leaves)),
		miss:  make([]uint64, len(tr.leaves)),
		ids:   make([]int32, len(tr.leaves)),
		ints:  make([]int, 5*nVerts),
		kids:  make([][]int, nVerts),
	}
	err := par.ForEach(jobs, (n+planRange-1)/planRange, func(r int) {
		s.buildRange(tr, dt, r*planRange, min((r+1)*planRange, n))
	})
	return s, err
}

// buildRange plans instances [lo, hi) into their slab regions.
func (s *planSlab) buildRange(tr *locTrace, dt *mesh.DistanceTable, lo, hi int) {
	b := planBuilder{dt: dt}
	var an PlanAnalysis
	infos := make(map[*ir.Ref]operandInfo)
	lookup := func(r *ir.Ref) operandInfo { return infos[r] }
	for k := lo; k < hi; k++ {
		tr.fillOperands(infos, k, nil)
		ps := &tr.pre[k%len(tr.pre)]
		plan := b.build(ps.set, lookup, tr.stores[k])
		s.put(k, tr.leafOff(k), len(ps.leaves), plan, plan.AnalyzeInto(&an))
	}
}

// put copies instance k, with n leaves at trace offset off, into its slab
// regions.
func (s *planSlab) put(k, off, n int, plan *StatementPlan, an *PlanAnalysis) {
	lines := s.lines[off : off : off+n]
	miss := s.miss[off : off : off+n]
	ids := s.ids[off : off : off+n]
	vo := off + k
	verts := s.verts[vo : vo : vo+n+1]
	kids := s.kids[vo : vo : vo+n+1]
	ints := s.ints[5*vo : 5*vo : 5*(vo+n+1)]

	for _, v := range plan.Vertices {
		pv := PlanVertex{Node: v.Node, IsStore: v.IsStore}
		pv.Lines, lines = carve(lines, v.Lines)
		pv.MissLines, miss = carve(miss, v.MissLines)
		pv.LineIDs, ids = carve(ids, v.LineIDs)
		verts = append(verts, pv)
	}
	s.plans[k] = StatementPlan{
		Vertices:  verts[:len(verts):len(verts)],
		Root:      plan.Root,
		Movement:  plan.Movement,
		ReuseHits: plan.ReuseHits,
	}

	for _, c := range an.Children {
		var cc []int
		cc, ints = carve(ints, c)
		kids = append(kids, cc)
	}
	sa := &s.ans[k]
	sa.Children = kids[:len(kids):len(kids)]
	sa.Parent, ints = carve(ints, an.Parent)
	sa.PostOrder, ints = carve(ints, an.PostOrder)
	sa.OpsAt, ints = carve(ints, an.OpsAt)
	sa.EdgeUp, _ = carve(ints, an.EdgeUp)
	sa.Subcomputations, sa.Parallelism, sa.Syncs = an.Subcomputations, an.Parallelism, an.Syncs
}

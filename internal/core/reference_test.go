package core

import (
	"sort"

	"dmacp/internal/mesh"
)

// referenceReemit is reemitDependenceArcs as it stood before the chain-label
// rework, kept as the test-only reference TestReemitMatchesReference
// compares the replay against: an n x n/64-word ancestor bitset built
// incrementally in task order, and per-line reader state in a map of maps
// sorted by node at every root store.
func referenceReemit(s *Schedule, dist *mesh.DistanceTable) int {
	n := len(s.Tasks)
	words := (n + 63) / 64
	bits := make([]uint64, n*words)
	row := func(i int) []uint64 { return bits[i*words : (i+1)*words] }
	ordered := func(a, b int) bool { // a happens before b?
		return row(b)[a/64]&(1<<(uint(a)%64)) != 0
	}
	absorb := func(dst []uint64, p int) {
		src := row(p)
		for w := range dst {
			dst[w] |= src[w]
		}
		dst[p/64] |= 1 << (uint(p) % 64)
	}

	added := 0
	lastOnNode := make(map[mesh.NodeID]int)
	lastWrite := make(map[uint64]int)
	readers := make(map[uint64]map[mesh.NodeID]int)

	for i, t := range s.Tasks {
		r := row(i)
		for _, p := range t.WaitFor {
			absorb(r, p)
		}
		if prev, ok := lastOnNode[t.Node]; ok {
			absorb(r, prev)
		}
		need := func(p int) {
			if p == i || ordered(p, i) {
				return
			}
			t.addWait(p, dist.Between(s.Tasks[p].Node, t.Node))
			added++
			absorb(r, p)
		}

		for _, fe := range t.Fetches {
			if w, ok := lastWrite[fe.Line]; ok {
				need(w) // RAW
			}
			if readers[fe.Line] == nil {
				readers[fe.Line] = make(map[mesh.NodeID]int)
			}
			readers[fe.Line][t.Node] = i
		}
		if t.IsRoot {
			line := t.ResultLine
			if w, ok := lastWrite[line]; ok {
				need(w) // WAW
			}
			if rs := readers[line]; len(rs) > 0 {
				nodes := make([]mesh.NodeID, 0, len(rs))
				for nd := range rs {
					nodes = append(nodes, nd)
				}
				sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
				for _, nd := range nodes {
					need(rs[nd]) // WAR
				}
			}
			delete(readers, line)
			lastWrite[line] = i
		}
		lastOnNode[t.Node] = i
	}
	return added
}

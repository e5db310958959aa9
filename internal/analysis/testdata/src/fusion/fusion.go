// Package fusion is the fixture for fusion-style candidate emission: the
// coarsening pre-pass publishes statement order into the schedule (the
// coarsened nest IS the emission order), so candidates must be picked in
// deterministic ascending-statement order, never by map iteration.
// Exercised by maporder.
package fusion

import "sort"

// stmt is a schematic statement: an index and the array it stores to.
type stmt struct {
	id    int
	store string
}

// fusionMap mirrors the production FusionMap: groups[f] lists the original
// statement indices folded into fused statement f, ascending.
type fusionMap struct {
	groups [][]int
}

// Not flagged: the production pattern — scan statements in ascending body
// order and consult the consumer map per candidate. The map is only probed,
// never ranged, so no iteration order can reach the coarsened sequence.
func coarsenAscending(stmts []stmt, consumersOf map[int][]int) *fusionMap {
	fm := &fusionMap{}
	for i := range stmts {
		group := append([]int{stmts[i].id}, consumersOf[stmts[i].id]...)
		fm.groups = append(fm.groups, group)
	}
	return fm
}

// Flagged: emitting fusion groups by ranging the candidate map publishes
// map-iteration order into the coarsened statement sequence, so two runs of
// the same compile can disagree on fused statement numbering.
func coarsenByMapOrder(cands map[int][]int) *fusionMap {
	fm := &fusionMap{}
	for p, group := range cands { // want "range over map cands"
		fm.groups = append(fm.groups, append([]int{p}, group...))
	}
	return fm
}

// Not flagged: collect-sort-range launders the candidate set into a
// deterministic order before anything is emitted.
func coarsenSortedCandidates(cands map[int][]int) *fusionMap {
	keys := make([]int, 0, len(cands))
	for p := range cands {
		keys = append(keys, p)
	}
	sort.Ints(keys)
	fm := &fusionMap{}
	for _, p := range keys {
		fm.groups = append(fm.groups, append([]int{p}, cands[p]...))
	}
	return fm
}

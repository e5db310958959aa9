package mesh

// ReviveTile marks node n's tile (core + caches) live again: the inverse of
// KillTile, for a tile that comes back after a power cycle. Like every
// mutation it drops the memoized distance view.
func (f *FaultSet) ReviveTile(n NodeID) {
	delete(f.deadTiles, n)
	f.invalidateDistances()
}

// RevivedNodes returns the nodes of m that are usable under after but were
// not usable under before, in ascending id order: the compute elements a
// recovery event brought back, which re-integration may migrate work onto.
func RevivedNodes(m *Mesh, before, after *FaultSet) []NodeID {
	var out []NodeID
	for i := 0; i < m.Nodes(); i++ {
		n := NodeID(i)
		if after.NodeUsable(n) && !before.NodeUsable(n) {
			out = append(out, n)
		}
	}
	return out
}

package mesh

import (
	"fmt"
	"sort"
	"strings"
)

// Revival: the inverse of Kill*. Real interconnects churn — a link comes back
// after a retrain, a tile after a power cycle — so a FaultSet must shrink as
// well as grow. Every Revive* mutation invalidates the memoized degraded
// distance view exactly like Kill* does; a stale view after revival would
// silently keep routing around hardware that is live again (or worse, keep a
// pair marked partitioned forever).

// ReviveLink marks the link between a and b live again in both directions.
// Reviving a link that was never dead is a no-op (but still drops the cache,
// keeping the invalidation rule trivially "any mutation clears it").
func (f *FaultSet) ReviveLink(a, b NodeID) {
	delete(f.deadLinks, Link{From: a, To: b})
	delete(f.deadLinks, Link{From: b, To: a})
	f.invalidateDistances()
}

// ReviveRouter marks node n's router live again.
func (f *FaultSet) ReviveRouter(n NodeID) {
	delete(f.deadRouters, n)
	f.invalidateDistances()
}

// ReviveTile marks node n's tile (core + caches) live again.
func (f *FaultSet) ReviveTile(n NodeID) {
	delete(f.deadTiles, n)
	f.invalidateDistances()
}

// Clone returns an independent copy of the fault set: mutations to the copy
// do not affect the original and vice versa. The distance memo is not
// copied — the clone rebuilds it on first use. A nil receiver clones to an
// empty set, so callers can Clone-then-mutate without a nil check.
func (f *FaultSet) Clone() *FaultSet {
	c := NewFaultSet()
	if f == nil {
		return c
	}
	for l := range f.deadLinks {
		c.deadLinks[l] = struct{}{}
	}
	for n := range f.deadRouters {
		c.deadRouters[n] = struct{}{}
	}
	for n := range f.deadTiles {
		c.deadTiles[n] = struct{}{}
	}
	return c
}

// RecoverySet names the components that come back in one recovery event, the
// mirror image of a FaultSet's contents. Links are undirected (one entry per
// pair). The zero value recovers nothing.
type RecoverySet struct {
	Links   []Link
	Routers []NodeID
	Tiles   []NodeID
}

// Empty reports whether the recovery set revives nothing.
func (r RecoverySet) Empty() bool {
	return len(r.Links) == 0 && len(r.Routers) == 0 && len(r.Tiles) == 0
}

// String summarizes the recovery set for reports.
func (r RecoverySet) String() string {
	if r.Empty() {
		return "no recovery"
	}
	var parts []string
	if len(r.Links) > 0 {
		links := make([]string, 0, len(r.Links))
		for _, l := range r.Links {
			a, b := l.From, l.To
			if b < a {
				a, b = b, a
			}
			links = append(links, fmt.Sprintf("%d-%d", a, b))
		}
		sort.Strings(links)
		parts = append(parts, fmt.Sprintf("%d revived link(s) [%s]", len(r.Links), strings.Join(links, " ")))
	}
	if len(r.Routers) > 0 {
		parts = append(parts, fmt.Sprintf("%d revived router(s) %v", len(r.Routers), r.Routers))
	}
	if len(r.Tiles) > 0 {
		parts = append(parts, fmt.Sprintf("%d revived tile(s) %v", len(r.Tiles), r.Tiles))
	}
	return strings.Join(parts, ", ")
}

// Revive applies every revival in r to the fault set.
func (f *FaultSet) Revive(r RecoverySet) {
	for _, l := range r.Links {
		f.ReviveLink(l.From, l.To)
	}
	for _, n := range r.Routers {
		f.ReviveRouter(n)
	}
	for _, n := range r.Tiles {
		f.ReviveTile(n)
	}
}

// RecoveryAll returns the recovery set that undoes every fault in f: all dead
// links, routers and tiles in deterministic sorted order. Applying it to f
// yields a pristine mesh.
func (f *FaultSet) RecoveryAll() RecoverySet {
	var r RecoverySet
	if f == nil {
		return r
	}
	for l := range f.deadLinks {
		if l.From < l.To {
			r.Links = append(r.Links, l)
		}
	}
	sort.Slice(r.Links, func(i, j int) bool {
		if r.Links[i].From != r.Links[j].From {
			return r.Links[i].From < r.Links[j].From
		}
		return r.Links[i].To < r.Links[j].To
	})
	r.Routers = sortedNodes(f.deadRouters)
	r.Tiles = sortedNodes(f.deadTiles)
	return r
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

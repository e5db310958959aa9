package mesh

// Traffic accumulates per-link load (in flits, i.e. cache-line-sized units)
// for a mesh, and converts accumulated load into transfer latencies with a
// simple contention model: each link adds a queueing penalty that grows with
// its utilization, the load it has carried over its capacity so far.
//
// The model is intentionally first-order — the paper's claims depend on the
// *number of links traversed* and on relative congestion, both of which this
// captures — but it is enough to reproduce the average/maximum network
// latency reductions of Figure 19.
type Traffic struct {
	m    *Mesh
	load []int64
}

// NewTraffic creates an empty traffic account for mesh m.
func NewTraffic(m *Mesh) *Traffic {
	return &Traffic{m: m, load: make([]int64, m.NumLinkSlots())}
}

// Record adds flits units of load to every link on the XY route from src to
// dst and returns the number of links traversed.
func (t *Traffic) Record(src, dst NodeID, flits int64) int {
	return t.RecordRoute(t.m.Route(src, dst), flits)
}

// RecordRoute adds flits units of load to every link of an explicit route
// (e.g. a fault-aware detour from RouteAvoiding) and returns the number of
// links traversed.
func (t *Traffic) RecordRoute(route []Link, flits int64) int {
	for _, l := range route {
		if i := t.m.linkIndex(l); i >= 0 {
			t.load[i] += flits
		}
	}
	return len(route)
}

// LatencyParams configures the contention-aware latency model.
type LatencyParams struct {
	// PerHop is the base cycles to traverse one link (router + wire).
	PerHop float64
	// Contention scales the queueing penalty added per unit of
	// utilization-derived queueing in PathLatencyAt.
	Contention float64
	// LinkCapacity is the flits per cycle one link can carry, used by the
	// utilization model of PathLatencyAt.
	LinkCapacity float64
}

// PathLatencyAt estimates the cycles for one cache-line transfer from src to
// dst at the given elapsed simulation time, using an M/M/1-style queueing
// model per link: each link's utilization is its accumulated load divided by
// its capacity-time, and the queueing delay grows as util/(1-util). This is
// the volume-sensitive model the timing simulator uses — heavier total
// traffic slows every transfer, so schedules that move less data see lower
// average latencies (Figure 19).
func (t *Traffic) PathLatencyAt(src, dst NodeID, p LatencyParams, elapsed float64) float64 {
	return t.RouteLatencyAt(t.m.Route(src, dst), p, elapsed)
}

// RouteLatencyAt is PathLatencyAt over an explicit route, so degraded-mesh
// transfers pay for every link of their detour, not just the Manhattan
// distance.
func (t *Traffic) RouteLatencyAt(route []Link, p LatencyParams, elapsed float64) float64 {
	if len(route) == 0 {
		return 0
	}
	// Floor the elapsed time so the warm-up transfers of a run do not see a
	// spuriously saturated network.
	if elapsed < 200 {
		elapsed = 200
	}
	capacity := p.LinkCapacity
	if capacity <= 0 {
		capacity = 0.5
	}
	lat := 0.0
	for _, l := range route {
		lat += p.PerHop
		if i := t.m.linkIndex(l); i >= 0 {
			util := float64(t.load[i]) / (elapsed * capacity)
			if util > 0.8 {
				util = 0.8
			}
			lat += p.Contention * util / (1 - util)
		}
	}
	return lat
}

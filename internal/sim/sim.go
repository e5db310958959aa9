// Package sim executes a task schedule (default or optimized) on the modeled
// manycore: per-node timelines, contention-aware network transfer latencies,
// memory-controller queueing for L2 misses, synchronization handshakes, and
// a CACTI/McPAT-inspired energy model. It produces the execution-time,
// network-latency and energy figures of Section 6 (Figures 17, 18, 19, 22,
// 24).
//
// The model is a deterministic list simulation: tasks are visited in
// dependence order (task IDs are topological by construction), each task
// starts when its node is free and all awaited producer results have
// arrived, spends time fetching its inputs and computing, and then releases
// its node. The simulator does not re-order tasks; the partitioner's
// placement decisions are what it measures.
package sim

import (
	"fmt"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
)

// MemMode mirrors KNL's memory modes (Section 6.1).
type MemMode int

// The three memory modes.
const (
	// Flat: MCDRAM and DDR mapped side by side; hot structures were placed
	// into MCDRAM by profiling, so off-chip accesses are fast but every miss
	// pays the full network trip to an MC.
	Flat MemMode = iota
	// CacheMode: MCDRAM fronts DDR as a direct-mapped cache; misses pay a
	// lookup plus a deeper miss path.
	CacheMode
	// Hybrid: half cache, half flat.
	Hybrid
)

// String names the mode as the paper's configuration labels do.
func (m MemMode) String() string {
	switch m {
	case Flat:
		return "flat"
	case CacheMode:
		return "cache"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("MemMode(%d)", int(m))
}

// dramCycles returns the effective off-chip access latency of the mode.
func (m MemMode) dramCycles() float64 {
	switch m {
	case Flat:
		return 150 // hot data in MCDRAM
	case CacheMode:
		// MCDRAM cache: ~70% hit at 100 cycles, else 100 (lookup) + 150 (DDR).
		return 0.7*130 + 0.3*300
	default: // Hybrid
		return (120 + 0.7*130 + 0.3*300) / 2
	}
}

// Config parameterizes one simulation. The machine's timing model (network
// latency, cycle costs, memory parallelism) is fixed; see the constants
// below.
type Config struct {
	Mesh *mesh.Mesh
	// MemMode selects the off-chip latency profile.
	MemMode MemMode

	// IdealNetwork zeroes all transfer latencies (the ideal-network scenario
	// of Section 6.4). Traffic is still recorded for energy accounting.
	IdealNetwork bool

	// Faults, when set, degrades the mesh: every transfer is routed around
	// the dead links and routers (paying for each link of the detour), L2
	// misses drain through the nearest surviving memory controller, and a
	// schedule that still touches a dead node or crosses a partitioned pair
	// is rejected with an error — run core.RepairSchedule first.
	Faults *mesh.FaultSet

	// FaultEvents is the mid-run fault-arrival timeline: each event's fault
	// set strikes when the simulated clock reaches its cycle. The run itself
	// executes fault-free — an arrival interrupts the machine, it does not
	// re-time the past — and Result.Checkpoints carries one snapshot per
	// event (completed/in-flight frontiers, per-node busy horizons, live
	// L1/result-line residency at the arrival cycle) for core.RepairOnline
	// to re-repair the residual schedule against the degraded mesh.
	FaultEvents []FaultEvent

	// NodeFreeAt, when non-nil, seeds the per-node busy horizons (indexed by
	// node ID) so a residual schedule resumes where a checkpoint's completed
	// work left the nodes instead of at cycle zero.
	NodeFreeAt []float64

	// The following knobs exist for the metric-isolation study of Figure 18
	// (enforcing one optimized metric on the default execution, as the
	// paper does in simulation).

	// ForcedL1HitRate, when non-nil, overrides each fetch's L1 hit flag with
	// a deterministic pattern achieving the given rate.
	ForcedL1HitRate *float64
	// HopScale scales every transfer's hop count (1 = unchanged); S2 sets it
	// to the optimized/default movement ratio.
	HopScale float64
	// ComputeScale divides task compute time (S3: parallelism enforced).
	ComputeScale float64
	// ExtraSyncArcsPerTask charges additional sync handshakes per task (S4:
	// optimized synchronization overhead enforced on the default run).
	ExtraSyncArcsPerTask float64
}

// DefaultConfig returns the simulation parameters used throughout the
// evaluation.
func DefaultConfig(m *mesh.Mesh) Config {
	return Config{
		Mesh:         m,
		MemMode:      Flat,
		HopScale:     1,
		ComputeScale: 1,
	}
}

// Timing constants of the modeled machine, in cycles.
const (
	cyclesPerOp = 3  // compute cost of one weighted operation
	l1HitCycles = 2  // local L1 access
	l2HitCycles = 12 // local L2 bank access
	// mcServiceCycles is the serialization interval of one memory
	// controller (queueing builds up behind it).
	mcServiceCycles = 6
	syncCycles      = 8 // handshake per synchronization arc
	// memoryParallelism is the number of outstanding fetches a task can
	// overlap (MSHR-style); total fetch latency is bounded below by
	// sum/memoryParallelism (the bandwidth term).
	memoryParallelism = 4
)

// netLatency is the per-hop/contention network model.
var netLatency = mesh.LatencyParams{PerHop: 8, Contention: 25, LinkCapacity: 0.35}

// Energy is the per-component energy breakdown in nanojoules (constants
// inspired by CACTI/McPAT-class models; relative magnitudes are what the
// evaluation depends on).
type Energy struct {
	Network float64
	Cache   float64
	DRAM    float64
	Compute float64
	Static  float64
}

// Total sums the components.
func (e Energy) Total() float64 {
	return e.Network + e.Cache + e.DRAM + e.Compute + e.Static
}

// Energy cost constants (nJ).
const (
	energyPerHop     = 0.75 // one cache line over one link
	energyL1Access   = 0.05
	energyL2Access   = 0.40
	energyDRAMAccess = 15.0
	energyPerOp      = 0.10
	energyStaticNode = 0.002 // per node per cycle
)

// Result is the outcome of one simulation.
type Result struct {
	// Cycles is the makespan.
	Cycles float64
	// BusyCycles sums task service times (fetch + compute) over all tasks.
	BusyCycles float64
	// Transfers counts remote line/result transfers; HopsTotal their links.
	Transfers int64
	HopsTotal int64
	// AvgNetLatency and MaxNetLatency summarize per-transfer network
	// latencies (Figure 19).
	AvgNetLatency float64
	MaxNetLatency float64
	// L1Hits / L1Refs give the simulated L1 hit rate.
	L1Hits, L1Refs int64
	// L2Misses counts fetches served by memory controllers.
	L2Misses int64
	// SyncArcs counts charged synchronization handshakes; SyncStall the
	// cycles tasks spent waiting on producers beyond node availability.
	SyncArcs  int64
	SyncStall float64
	// Energy is the modeled energy breakdown.
	Energy Energy
	// Checkpoints holds one execution snapshot per Config.FaultEvents entry,
	// in the same order, taken at each event's arrival cycle.
	Checkpoints []*core.Checkpoint
}

// L1HitRate returns the simulated L1 hit rate.
func (r *Result) L1HitRate() float64 {
	if r.L1Refs == 0 {
		return 0
	}
	return float64(r.L1Hits) / float64(r.L1Refs)
}

// Run simulates the schedule under the configuration and returns the
// measured result.
func Run(sched *core.Schedule, cfg Config) (*Result, error) {
	if cfg.Mesh == nil {
		return nil, fmt.Errorf("sim: Config.Mesh is required")
	}
	// Reject a schedule the loop below would index out of range, and one
	// that still touches a dead node (repair it first).
	if err := core.CheckShape(sched, cfg.Mesh); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	for _, t := range sched.Tasks {
		if !cfg.Faults.NodeUsable(t.Node) {
			return nil, fmt.Errorf("sim: task %d placed on dead node %d; repair the schedule before simulating", t.ID, t.Node)
		}
	}
	if cfg.HopScale == 0 {
		cfg.HopScale = 1
	}
	if cfg.ComputeScale == 0 {
		cfg.ComputeScale = 1
	}

	res := &Result{}
	tr := mesh.NewTraffic(cfg.Mesh)
	finish := make([]float64, len(sched.Tasks))
	nodeFree := make([]float64, cfg.Mesh.Nodes())
	for i, v := range cfg.NodeFreeAt {
		if i < len(nodeFree) {
			nodeFree[i] = v
		}
	}
	// Mid-run fault arrivals need per-task start/occupancy timestamps to
	// cut the completed/in-flight frontier at each arrival cycle.
	var startAt, occEndAt []float64
	if len(cfg.FaultEvents) > 0 {
		startAt = make([]float64, len(sched.Tasks))
		occEndAt = make([]float64, len(sched.Tasks))
	}
	// Misses serialize per memory controller: mcFree is when each MC can
	// take its next request.
	mcFree := make(map[mesh.NodeID]float64)

	// Degraded mesh: route every transfer around the faults, and cache the
	// routes (the BFS detour for one pair never changes within a run).
	// Pristine XY routes are rebuilt per transfer instead: caching them
	// would hold one route per node pair, about 1M on a 1,024-node mesh.
	faulty := !cfg.Faults.Empty()
	routeCache := make(map[[2]mesh.NodeID][]mesh.Link)
	var routeErr error
	routeOf := func(from, to mesh.NodeID) []mesh.Link {
		if !faulty {
			return cfg.Mesh.Route(from, to)
		}
		key := [2]mesh.NodeID{from, to}
		if r, ok := routeCache[key]; ok {
			return r
		}
		r, err := cfg.Mesh.RouteAvoiding(from, to, cfg.Faults)
		if err != nil && routeErr == nil {
			routeErr = err
		}
		routeCache[key] = r
		return r
	}

	// Nearest-MC answers repeat for every miss sourced at the same node and
	// the fault set is fixed within a run, so memoize them per source node.
	mcMemo := make([]mesh.NodeID, cfg.Mesh.Nodes())
	for i := range mcMemo {
		mcMemo[i] = mesh.InvalidNode
	}
	servingMCOf := func(from mesh.NodeID) (mesh.NodeID, error) {
		if mc := mcMemo[from]; mc != mesh.InvalidNode {
			return mc, nil
		}
		mc, err := cfg.Mesh.NearestUsableMC(from, cfg.Faults)
		if err != nil {
			return mesh.InvalidNode, err
		}
		mcMemo[from] = mc
		return mc, nil
	}

	var recAcc float64
	transferLatency := func(from, to mesh.NodeID, now float64) float64 {
		route := routeOf(from, to)
		hops := float64(len(route)) * cfg.HopScale
		res.Transfers++
		res.HopsTotal += int64(hops)
		if cfg.IdealNetwork {
			return 0
		}
		lat := tr.RouteLatencyAt(route, netLatency, now) * cfg.HopScale
		// Scaled movement (the S2 isolation) also thins the traffic the
		// congestion model sees: record a HopScale fraction of transfers.
		recAcc += cfg.HopScale
		if recAcc >= 1 {
			recAcc--
			tr.RecordRoute(route, 1)
		}
		if lat > res.MaxNetLatency {
			res.MaxNetLatency = lat
		}
		res.AvgNetLatency += lat // sum; divided at the end
		return lat
	}

	for _, t := range sched.Tasks {
		issueAt := nodeFree[t.Node]
		// Producer results: synchronization handshake + transfer. Waiting
		// overlaps with the task's own input fetches (cores issue loads
		// while blocked on a producer), so producer arrival bounds the start
		// of the compute phase, not of fetching.
		producersAt := issueAt
		for i, p := range t.WaitFor {
			hops := t.WaitHops[i]
			// A producer on the same node is plain program order: the value
			// is already in the local cache and no sync message is needed.
			// Cross-node results pay the handshake plus the transfer.
			lat := 0.0
			if hops > 0 {
				lat = syncCycles + transferLatency(sched.Tasks[p].Node, t.Node, finish[p])
				res.SyncArcs++
			}
			if arr := finish[p] + lat; arr > producersAt {
				producersAt = arr
			}
		}
		if cfg.ExtraSyncArcsPerTask > 0 {
			producersAt += cfg.ExtraSyncArcsPerTask * syncCycles
			res.SyncArcs += int64(cfg.ExtraSyncArcsPerTask)
		}
		start := issueAt

		// Input fetches: overlapping (non-blocking) loads; the task pays the
		// slowest one, bounded below by the bandwidth term (at most
		// memoryParallelism fetches in flight), plus an issue slot each.
		var fetchMax, fetchSum, fetchIssue float64
		for _, f := range t.Fetches {
			l1hit := f.L1Hit
			if cfg.ForcedL1HitRate != nil && !f.L2Miss && !l1hit {
				// S1 isolation of Figure 18: enforce the optimized run's L1
				// hit rate on the default execution by upgrading misses to
				// hits until the target rate is met. Real hits are never
				// destroyed and actual DRAM misses stay misses (cold lines
				// miss under any placement). An upgraded hit behaves as a
				// true L1 hit — local service, no network trip — exactly the
				// effect the optimized run's L1 profile has.
				if float64(res.L1Hits) < *cfg.ForcedL1HitRate*float64(res.L1Refs+1) {
					l1hit = true
				}
			}
			res.L1Refs++
			var lat float64
			switch {
			case l1hit:
				res.L1Hits++
				lat = l1HitCycles
			case f.L2Miss:
				res.L2Misses++
				// DRAM access behind the MC, serialized per controller. When
				// the compiler mispredicted and placed the fetch at a home
				// bank, the request still drains through that bank's MC — or,
				// on a degraded mesh, the nearest controller that survives.
				servingMC, mcErr := servingMCOf(f.From)
				if mcErr != nil {
					return nil, fmt.Errorf("sim: task %d: %w", t.ID, mcErr)
				}
				ready := max(start, mcFree[servingMC])
				mcFree[servingMC] = ready + mcServiceCycles
				lat = (ready - start) + cfg.MemMode.dramCycles()
				if f.From != t.Node {
					lat += transferLatency(f.From, t.Node, start)
				}
			default:
				lat = l2HitCycles
				if f.From != t.Node {
					lat += transferLatency(f.From, t.Node, start)
				}
			}
			if lat > fetchMax {
				fetchMax = lat
			}
			fetchSum += lat
			fetchIssue++
			// Energy per access.
			switch {
			case l1hit:
				res.Energy.Cache += energyL1Access
			case f.L2Miss:
				res.Energy.DRAM += energyDRAMAccess
			default:
				res.Energy.Cache += energyL2Access
			}
		}

		// Timing: tasks issue in order per node; the core is occupied only
		// while issuing loads and computing. Outstanding fetches and waits
		// for producer results overlap with other tasks on the node (cores
		// keep executing their other assigned subcomputations while a
		// request is outstanding — Section 4.5's code generation — and the
		// caches are non-blocking).
		compute := t.Ops * cyclesPerOp / cfg.ComputeScale
		occupancy := fetchIssue + compute
		nodeFree[t.Node] = start + occupancy
		fetchTime := fetchMax
		if bw := fetchSum / memoryParallelism; bw > fetchTime {
			fetchTime = bw
		}
		fetchDone := start + fetchIssue + fetchTime
		if producersAt > fetchDone {
			res.SyncStall += producersAt - fetchDone
			fetchDone = producersAt
		}
		end := fetchDone + compute
		finish[t.ID] = end
		if startAt != nil {
			startAt[t.ID] = start
			occEndAt[t.ID] = start + occupancy
		}
		res.BusyCycles += occupancy
		res.Energy.Compute += t.Ops * energyPerOp
		if end > res.Cycles {
			res.Cycles = end
		}
	}

	if routeErr != nil {
		return nil, fmt.Errorf("sim: %w", routeErr)
	}
	for _, ev := range cfg.FaultEvents {
		res.Checkpoints = append(res.Checkpoints,
			buildCheckpoint(sched, cfg.Mesh.Nodes(), startAt, occEndAt, finish, ev.Cycle))
	}
	if n := res.Transfers; n > 0 && !cfg.IdealNetwork {
		res.AvgNetLatency /= float64(n)
	}
	res.Energy.Network = float64(res.HopsTotal) * energyPerHop
	res.Energy.Static = res.Cycles * float64(cfg.Mesh.Nodes()) * energyStaticNode
	return res, nil
}

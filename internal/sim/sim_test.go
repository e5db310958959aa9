package sim

import (
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
)

// chainSchedule builds a simple producer/consumer pair across the mesh.
func chainSchedule(m *mesh.Mesh) *core.Schedule {
	producer := &core.Task{
		ID: 0, Node: m.NodeAt(0, 0), Ops: 2,
		Fetches: []core.Fetch{{From: m.NodeAt(0, 0), Line: 0x40}},
	}
	consumer := &core.Task{
		ID: 1, Node: m.NodeAt(3, 3), Ops: 1, IsRoot: true,
		Fetches: []core.Fetch{{From: m.NodeAt(2, 0), Line: 0x80}},
	}
	consumer.WaitFor = []int{0}
	consumer.WaitHops = []int{m.Distance(producer.Node, consumer.Node)}
	return &core.Schedule{Tasks: []*core.Task{producer, consumer}, Instances: 1, SyncsBefore: 1, SyncsAfter: 1}
}

func TestRunRequiresMesh(t *testing.T) {
	if _, err := Run(&core.Schedule{}, Config{}); err == nil {
		t.Error("nil mesh accepted")
	}
}

func TestRunEmptySchedule(t *testing.T) {
	m := mesh.MustNew(4, 4)
	res, err := Run(&core.Schedule{}, DefaultConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 {
		t.Errorf("empty schedule cycles = %v", res.Cycles)
	}
}

func TestRunChainOrdering(t *testing.T) {
	m := mesh.MustNew(6, 6)
	sched := chainSchedule(m)
	cfg := DefaultConfig(m)
	res, err := Run(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The consumer must finish after producer compute + sync + transfer.
	minimum := sched.Tasks[0].Ops*cfg.CyclesPerOp + cfg.SyncCycles
	if res.Cycles <= minimum {
		t.Errorf("cycles = %v, want > %v", res.Cycles, minimum)
	}
	if res.SyncArcs != 1 {
		t.Errorf("sync arcs = %d, want 1", res.SyncArcs)
	}
	if res.Transfers < 2 { // producer result + consumer remote fetch
		t.Errorf("transfers = %d, want >= 2", res.Transfers)
	}
}

func TestIdealNetworkFaster(t *testing.T) {
	m := mesh.MustNew(6, 6)
	cfg := DefaultConfig(m)
	real, err := Run(chainSchedule(m), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.IdealNetwork = true
	ideal, err := Run(chainSchedule(m), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Cycles >= real.Cycles {
		t.Errorf("ideal network %v >= real %v", ideal.Cycles, real.Cycles)
	}
	if ideal.AvgNetLatency != 0 || ideal.MaxNetLatency != 0 {
		t.Error("ideal network reported nonzero latency")
	}
}

func TestL2MissCostsMore(t *testing.T) {
	m := mesh.MustNew(6, 6)
	mk := func(miss bool) *core.Schedule {
		return &core.Schedule{Tasks: []*core.Task{{
			ID: 0, Node: m.NodeAt(3, 3), Ops: 1, IsRoot: true,
			Fetches: []core.Fetch{{From: m.NodeAt(0, 0), Line: 0x40, L2Miss: miss}},
		}}, Instances: 1}
	}
	cfg := DefaultConfig(m)
	hit, _ := Run(mk(false), cfg)
	miss, _ := Run(mk(true), cfg)
	if miss.Cycles <= hit.Cycles {
		t.Errorf("miss %v <= hit %v", miss.Cycles, hit.Cycles)
	}
	if miss.L2Misses != 1 || hit.L2Misses != 0 {
		t.Errorf("miss counts: %d, %d", miss.L2Misses, hit.L2Misses)
	}
	if miss.Energy.DRAM <= hit.Energy.DRAM {
		t.Error("DRAM energy did not increase on miss")
	}
}

func TestL1HitIsCheapest(t *testing.T) {
	m := mesh.MustNew(6, 6)
	mk := func(l1 bool) *core.Schedule {
		return &core.Schedule{Tasks: []*core.Task{{
			ID: 0, Node: m.NodeAt(3, 3), Ops: 0, IsRoot: true,
			Fetches: []core.Fetch{{From: m.NodeAt(3, 3), Line: 0x40, L1Hit: l1}},
		}}, Instances: 1}
	}
	cfg := DefaultConfig(m)
	l1, _ := Run(mk(true), cfg)
	l2, _ := Run(mk(false), cfg)
	if l1.Cycles >= l2.Cycles {
		t.Errorf("L1 hit %v >= L2 hit %v", l1.Cycles, l2.Cycles)
	}
	if l1.L1Hits != 1 || l1.L1HitRate() != 1 {
		t.Errorf("L1 accounting: hits=%d rate=%v", l1.L1Hits, l1.L1HitRate())
	}
}

func TestMCQueueingSerializes(t *testing.T) {
	m := mesh.MustNew(6, 6)
	// Many misses on the same MC from different nodes must queue.
	mc := m.NodeAt(0, 0)
	var tasks []*core.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, &core.Task{
			ID: i, Node: mesh.NodeID(i + 1), Ops: 0, IsRoot: true,
			Fetches: []core.Fetch{{From: mc, Line: uint64(i) * 64, L2Miss: true}},
		})
	}
	cfg := DefaultConfig(m)
	res, err := Run(&core.Schedule{Tasks: tasks, Instances: 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The eighth request has waited at least 7 service slots.
	if res.Cycles < cfg.MemMode.dramCycles()+7*cfg.MCServiceCycles {
		t.Errorf("cycles = %v: MC queueing not modeled", res.Cycles)
	}
}

func TestMemModeLatencies(t *testing.T) {
	if !(Flat.dramCycles() < CacheMode.dramCycles()) {
		t.Error("flat mode (hot data in MCDRAM) should beat cache mode")
	}
	h := Hybrid.dramCycles()
	if !(h > Flat.dramCycles() && h < CacheMode.dramCycles()) {
		t.Errorf("hybrid latency %v not between flat and cache", h)
	}
	for _, mode := range []MemMode{Flat, CacheMode, Hybrid} {
		if mode.String() == "" {
			t.Error("empty mode name")
		}
	}
}

func TestForcedL1HitRate(t *testing.T) {
	m := mesh.MustNew(6, 6)
	var tasks []*core.Task
	for i := 0; i < 100; i++ {
		tasks = append(tasks, &core.Task{
			ID: i, Node: m.NodeAt(3, 3), IsRoot: true,
			Fetches: []core.Fetch{{From: m.NodeAt(0, 0), Line: uint64(i) * 64}},
		})
	}
	cfg := DefaultConfig(m)
	rate := 0.4
	cfg.ForcedL1HitRate = &rate
	res, err := Run(&core.Schedule{Tasks: tasks, Instances: 100}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.L1HitRate()
	if got < 0.35 || got > 0.45 {
		t.Errorf("forced hit rate = %v, want ~0.4", got)
	}
}

func TestHopScaleReducesTrafficCost(t *testing.T) {
	m := mesh.MustNew(6, 6)
	cfg := DefaultConfig(m)
	base, _ := Run(chainSchedule(m), cfg)
	cfg.HopScale = 0.5
	scaled, _ := Run(chainSchedule(m), cfg)
	if scaled.Cycles >= base.Cycles {
		t.Errorf("hop-scaled run %v >= base %v", scaled.Cycles, base.Cycles)
	}
	if scaled.HopsTotal >= base.HopsTotal {
		t.Errorf("hop-scaled hops %d >= base %d", scaled.HopsTotal, base.HopsTotal)
	}
}

func TestComputeScaleShortensCompute(t *testing.T) {
	m := mesh.MustNew(4, 4)
	sched := &core.Schedule{Tasks: []*core.Task{{ID: 0, Node: 0, Ops: 100, IsRoot: true}}, Instances: 1}
	cfg := DefaultConfig(m)
	base, _ := Run(sched, cfg)
	cfg.ComputeScale = 2
	half, _ := Run(sched, cfg)
	if half.Cycles >= base.Cycles {
		t.Errorf("compute-scaled %v >= base %v", half.Cycles, base.Cycles)
	}
}

func TestExtraSyncArcsSlowDown(t *testing.T) {
	m := mesh.MustNew(4, 4)
	sched := &core.Schedule{Tasks: []*core.Task{{ID: 0, Node: 0, Ops: 1, IsRoot: true}}, Instances: 1}
	cfg := DefaultConfig(m)
	base, _ := Run(sched, cfg)
	cfg.ExtraSyncArcsPerTask = 2
	slow, _ := Run(sched, cfg)
	if slow.Cycles <= base.Cycles {
		t.Errorf("extra syncs %v <= base %v", slow.Cycles, base.Cycles)
	}
}

func TestEnergyComponentsPositive(t *testing.T) {
	m := mesh.MustNew(6, 6)
	res, err := Run(chainSchedule(m), DefaultConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	e := res.Energy
	if e.Network <= 0 || e.Cache <= 0 || e.Compute <= 0 || e.Static <= 0 {
		t.Errorf("energy components: %+v", e)
	}
	if e.Total() <= e.Network {
		t.Error("total energy not summing components")
	}
}

func TestDeterminism(t *testing.T) {
	m := mesh.MustNew(6, 6)
	a, _ := Run(chainSchedule(m), DefaultConfig(m))
	b, _ := Run(chainSchedule(m), DefaultConfig(m))
	if a.Cycles != b.Cycles || a.Energy.Total() != b.Energy.Total() {
		t.Error("simulation not deterministic")
	}
}

func TestNodeSerialization(t *testing.T) {
	m := mesh.MustNew(4, 4)
	// Two independent tasks on the same node must serialize.
	mk := func(node mesh.NodeID) *core.Schedule {
		return &core.Schedule{Tasks: []*core.Task{
			{ID: 0, Node: 0, Ops: 50, IsRoot: true},
			{ID: 1, Node: node, Ops: 50, IsRoot: true},
		}, Instances: 2}
	}
	cfg := DefaultConfig(m)
	same, _ := Run(mk(0), cfg)
	diff, _ := Run(mk(5), cfg)
	if same.Cycles <= diff.Cycles {
		t.Errorf("same-node %v <= different-node %v", same.Cycles, diff.Cycles)
	}
}

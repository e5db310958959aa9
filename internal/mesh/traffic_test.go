package mesh

import "testing"

func TestTrafficRecordCountsHops(t *testing.T) {
	m := MustNew(6, 6)
	tr := NewTraffic(m)
	hops := tr.Record(m.NodeAt(0, 0), m.NodeAt(3, 2), 1)
	if hops != 5 {
		t.Errorf("hops = %d, want 5", hops)
	}
}

func TestPathLatencyAtUncongested(t *testing.T) {
	m := MustNew(6, 6)
	tr := NewTraffic(m)
	p := LatencyParams{PerHop: 4, Contention: 15, LinkCapacity: 0.5}
	lat := tr.PathLatencyAt(m.NodeAt(0, 0), m.NodeAt(3, 0), p, 1000)
	if lat != 3*p.PerHop {
		t.Errorf("uncongested latency = %v, want %v", lat, 3*p.PerHop)
	}
	if tr.PathLatencyAt(5, 5, p, 1000) != 0 {
		t.Error("zero-hop latency nonzero")
	}
}

func TestPathLatencyAtGrowsWithLoad(t *testing.T) {
	m := MustNew(6, 6)
	tr := NewTraffic(m)
	p := LatencyParams{PerHop: 4, Contention: 15, LinkCapacity: 0.5}
	src, dst := m.NodeAt(0, 0), m.NodeAt(1, 0)
	base := tr.PathLatencyAt(src, dst, p, 1000)
	for i := 0; i < 200; i++ {
		tr.Record(src, dst, 1)
	}
	loaded := tr.PathLatencyAt(src, dst, p, 1000)
	if loaded <= base {
		t.Errorf("loaded latency %v <= base %v", loaded, base)
	}
	// Utilization saturates: the penalty must be bounded by the 0.8 cap.
	for i := 0; i < 100000; i++ {
		tr.Record(src, dst, 1)
	}
	sat := tr.PathLatencyAt(src, dst, p, 1000)
	maxPenalty := p.Contention * 0.8 / 0.2
	if sat > p.PerHop+maxPenalty+1e-9 {
		t.Errorf("saturated latency %v exceeds cap %v", sat, p.PerHop+maxPenalty)
	}
}

func TestPathLatencyAtMoreTimeLessCongestion(t *testing.T) {
	m := MustNew(6, 6)
	tr := NewTraffic(m)
	p := LatencyParams{PerHop: 4, Contention: 15, LinkCapacity: 0.5}
	src, dst := m.NodeAt(0, 0), m.NodeAt(1, 0)
	for i := 0; i < 300; i++ {
		tr.Record(src, dst, 1)
	}
	early := tr.PathLatencyAt(src, dst, p, 500)
	late := tr.PathLatencyAt(src, dst, p, 50000)
	if late >= early {
		t.Errorf("late latency %v >= early %v: same load over more time must be cheaper", late, early)
	}
}

func TestPathLatencyAtDefaultsCapacity(t *testing.T) {
	m := MustNew(4, 4)
	tr := NewTraffic(m)
	// Zero LinkCapacity must fall back to a sane default, not divide by zero.
	p := LatencyParams{PerHop: 2, Contention: 5}
	if lat := tr.PathLatencyAt(m.NodeAt(0, 0), m.NodeAt(1, 0), p, 1000); lat < p.PerHop {
		t.Errorf("latency = %v", lat)
	}
}

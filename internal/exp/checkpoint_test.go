package exp

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/sim"
	"dmacp/internal/workloads"
)

// lineResidency is a checkpoint's residency keyed by line, the form
// core.Checkpoint carried before it was indexed by line ID: each written
// line's home, and per node holding copies its lines, ascending. A node
// without copies has no entry.
type lineResidency struct {
	home     map[uint64]mesh.NodeID
	resident map[mesh.NodeID][]uint64
}

// lineKeyed maps a checkpoint's ID-indexed residency back to lines through
// lineOf, the schedule's ID-to-line table.
func lineKeyed(ck *core.Checkpoint, lineOf map[int32]uint64) lineResidency {
	r := lineResidency{home: map[uint64]mesh.NodeID{}, resident: map[mesh.NodeID][]uint64{}}
	for id, n := range ck.Home {
		if n != mesh.InvalidNode {
			r.home[lineOf[int32(id)]] = n
		}
	}
	for n, ids := range ck.L1Resident {
		for _, id := range ids {
			r.resident[mesh.NodeID(n)] = append(r.resident[mesh.NodeID(n)], lineOf[id])
		}
		slices.Sort(r.resident[mesh.NodeID(n)])
	}
	return r
}

// referenceResidency replays the write-invalidate rule by line over the
// completed tasks of s, in ID order, without core.Residency: a read leaves
// a copy at its node, and a root store leaves its node the line's only
// copy and its home.
func referenceResidency(s *core.Schedule, done []bool) lineResidency {
	r := lineResidency{home: map[uint64]mesh.NodeID{}, resident: map[mesh.NodeID][]uint64{}}
	holders := map[uint64]map[mesh.NodeID]bool{}
	for i, t := range s.Tasks {
		if !done[i] {
			continue
		}
		for _, fe := range t.Fetches {
			if holders[fe.Line] == nil {
				holders[fe.Line] = map[mesh.NodeID]bool{}
			}
			holders[fe.Line][t.Node] = true
		}
		if t.IsRoot {
			holders[t.ResultLine] = map[mesh.NodeID]bool{t.Node: true}
			r.home[t.ResultLine] = t.Node
		}
	}
	for line, nodes := range holders {
		for n := range nodes {
			r.resident[n] = append(r.resident[n], line)
		}
	}
	for _, lines := range r.resident {
		slices.Sort(lines)
	}
	return r
}

// checkpointFormat checks the ID format of a checkpoint cut from s on m:
// one Home entry per line, each InvalidNode or on the mesh, and one L1
// list per node, strictly ascending inside [0, s.Lines).
func checkpointFormat(ck *core.Checkpoint, s *core.Schedule, m *mesh.Mesh) error {
	if len(ck.Home) != s.Lines {
		return fmt.Errorf("%d homes for %d lines", len(ck.Home), s.Lines)
	}
	for id, n := range ck.Home {
		if n != mesh.InvalidNode && !m.Valid(n) {
			return fmt.Errorf("line ID %d homed off the mesh, on %d", id, n)
		}
	}
	if len(ck.L1Resident) != m.Nodes() {
		return fmt.Errorf("%d L1 lists for %d nodes", len(ck.L1Resident), m.Nodes())
	}
	for n, ids := range ck.L1Resident {
		for k, id := range ids {
			if id < 0 || int(id) >= s.Lines || (k > 0 && id <= ids[k-1]) {
				return fmt.Errorf("node %d's L1 list %v is not strictly ascending inside [0, %d)", n, ids, s.Lines)
			}
		}
	}
	return nil
}

// TestCheckpointMatchesLineKeyedReference cuts the online sweep's events —
// every fault level at a quarter, half and three quarters of the pristine
// makespan, on all 12 workloads at TestScale — and requires each
// checkpoint's ID-indexed Home and L1Resident to be well formed and to map
// back, entry for entry, to the line-keyed residency a by-line replay of
// its completed tasks builds.
func TestCheckpointMatchesLineKeyedReference(t *testing.T) {
	_, byApp, err := runSeries("checkpoint", GateConfig{Scale: workloads.TestScale(), Seed: 1}, func(s *gateSeries, out *int) error {
		sched, m := s.part.Schedule, s.opts.Mesh
		lineOf, err := lineIDsConsistent(sched, true)
		if err != nil {
			return err
		}
		cfg := sim.DefaultConfig(m)
		base, err := sim.Run(sched, cfg)
		if err != nil {
			return err
		}
		for _, lvl := range onlineLevels {
			f := mesh.Inject(m, s.seed, lvl.Links, lvl.Routers, lvl.Tiles, true)
			for _, frac := range onlineArrivalFracs {
				cfg.FaultEvents = append(cfg.FaultEvents, sim.FaultEvent{Cycle: frac * base.Cycles, Faults: f})
			}
		}
		run, err := sim.Run(sched, cfg)
		if err != nil {
			return err
		}
		for ei, ck := range run.Checkpoints {
			if err := checkpointFormat(ck, sched, m); err != nil {
				return fmt.Errorf("%s event %d: %w", s.variant(), ei, err)
			}
			if got, want := lineKeyed(ck, lineOf), referenceResidency(sched, ck.Done); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("%s event %d: residency %v, the line-keyed replay gives %v", s.variant(), ei, got, want)
			}
			*out++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for _, app := range byApp {
		for _, n := range app {
			events += n
		}
	}
	if want := 24 * len(onlineLevels) * len(onlineArrivalFracs); events != want {
		t.Errorf("checked %d checkpoints, want %d", events, want)
	}
}

package exp

import (
	"testing"

	"dmacp/internal/workloads"
)

// TestFusionSweepGate is the fusion acceptance harness: across all 12
// workloads the fused run must verify race-free against its coarsened nest,
// execute to byte-identical array contents, and never move more bytes×hops
// than the unfused run — with a strict movement win on at least 4 workloads
// (FFT's two butterfly temporaries plus the Radix digit, Raytrace
// intersection and MiniMD half-step velocity temporaries).
func TestFusionSweepGate(t *testing.T) {
	res, err := FusionSweep(GateConfig{Scale: workloads.TestScale()})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Merges == 0 {
		t.Fatal("fusion sweep merged no statements on the whole suite")
	}
	for _, row := range res.PerApp {
		if row.FusedBytesHops > row.UnfusedBytesHops {
			t.Errorf("%s: fused moves %d bytes×hops, unfused %d",
				row.App, row.FusedBytesHops, row.UnfusedBytesHops)
		}
		if row.Merged > 0 && !row.Strict {
			t.Errorf("%s: merged %d statements but shows no strict movement win (fused %d, unfused %d)",
				row.App, row.Merged, row.FusedBytesHops, row.UnfusedBytesHops)
		}
	}
	if res.StrictWins < 4 {
		t.Errorf("fusion strictly reduced movement on %d workloads, want >= 4", res.StrictWins)
	}
}

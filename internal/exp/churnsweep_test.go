package exp

import (
	"testing"

	"dmacp/internal/workloads"
)

// TestChurnSweepGate is the fault-churn acceptance harness: across all 12
// workloads a victim tile (plus random extra links) dies mid-run, the
// residual is repaired verifier-clean, the dead elements recover, and the
// hysteresis re-integrator decides whether to migrate work back. The gate
// requires zero contract violations: every event repaired, accepted
// re-integrations never losing movement, the kill/revive churn loops free of
// thrash, and the deadline probes returning verifier-clean repairs that
// unbounded runs never regress below.
func TestChurnSweepGate(t *testing.T) {
	res, err := ChurnSweep(GateConfig{Scale: workloads.TestScale(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("churn sweep drove no events")
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, u := range res.Unrepairable {
		t.Errorf("unrepairable at acceptance fault levels: %s", u)
	}
	if res.Repaired != res.Events {
		t.Errorf("repaired %d of %d events", res.Repaired, res.Events)
	}
	if res.NoThrashCycles == 0 {
		t.Error("no-thrash probe drove no cycles")
	}
	if res.DeadlineEvents == 0 {
		t.Error("deadline probe ran no events")
	}
	// The sweep must be non-vacuous: every leg of the decision machinery has
	// to engage somewhere — profitable migrations committed, flapping
	// elements refused by the cap, and marginal moves filtered by the
	// hysteresis margin. A zero on any leg means that path went untested.
	if res.Accepted == 0 {
		t.Error("no re-integration was ever accepted — the commit path never engaged")
	}
	if res.Migrated == 0 || res.MigrationTraffic == 0 {
		t.Errorf("accepted re-integrations moved no work (migrated %d, traffic %d)",
			res.Migrated, res.MigrationTraffic)
	}
	if res.DeclinedChurn == 0 {
		t.Error("the flap cap never declined a candidate — churn history never engaged")
	}
	if res.DeclinedHysteresis == 0 {
		t.Error("the hysteresis margin never declined a candidate")
	}
}

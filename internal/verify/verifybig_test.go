package verify_test

import (
	"testing"

	"dmacp/internal/baseline"
	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/verify"
)

// TestVerifyBigSchedule is the scale gate for the chain-decomposed
// reachability index: a two-level nest (sweep loop around an element loop)
// whose baseline placement emits over 100k tasks must verify cleanly,
// end-to-end, under the verifier's fixed soft memory bound — the configuration the old
// bitset closure refused outright (100k tasks would have needed ~1.25 GB).
func TestVerifyBigSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-task schedule; skipped with -short")
	}
	body, err := ir.ParseStatements("A(2*i) = B(2*i)+C(2*i)\nB(2*i) = A(2*i)+C(2*i)")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	nest := &ir.Nest{
		Name: "big",
		Loops: []ir.Loop{
			{Var: "t", Lower: 0, Upper: 2, Step: 1},
			{Var: "i", Lower: 0, Upper: 25600, Step: 1},
		},
		Body: body,
	}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, 1<<16, 8)
	prog.Nests = append(prog.Nests, nest)
	store := ir.NewStore(prog)
	store.FillRandom(prog, 7)
	opts := core.DefaultOptions()

	res, err := baseline.Place(prog, nest, store, opts, baseline.BlockDistribution)
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	if n := len(res.Schedule.Tasks); n < 100_000 {
		t.Fatalf("schedule has %d tasks, want >= 100000", n)
	}
	rep, err := verify.Check(verify.Input{
		Prog: prog, Nest: nest, Store: store,
		Schedule: res.Schedule, Mesh: opts.Mesh, Layout: opts.Layout,
		Translations: res.Translations,
	}, verify.Options{})
	if err != nil {
		t.Fatalf("check refused the schedule: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("big schedule not clean:\n%s\n%v", rep.Summary(), rep.Lines())
	}
	if rep.DepsChecked == 0 {
		t.Fatal("no dependence pairs checked at scale")
	}
}

package exp

import (
	"math/rand"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/verify"
)

// FuzzPartition feeds arbitrary statement-language sources through the
// partitioner with the static race detector as the oracle: for any program
// the parser accepts, the emitted schedule must verify with zero dependence
// violations and Partition must never panic. Seeds come from the
// differential harness's random-program generator, so the corpus starts in
// the interesting region of the grammar; go-fuzz mutation takes it from
// there. Crashing inputs land in testdata/fuzz/FuzzPartition as permanent
// regression seeds.
func FuzzPartition(f *testing.F) {
	for k := int64(0); k < 8; k++ {
		rng := rand.New(rand.NewSource(k))
		f.Add(RandomProgram(rng), uint8(k%5), uint8(k%3))
	}
	// Hand-picked shapes the generator rarely emits.
	f.Add("A(0) = A(0)+B(i)", uint8(1), uint8(0))           // pure accumulator
	f.Add("A(i) = A(i+1)", uint8(2), uint8(1))              // loop-carried anti
	f.Add("A(IX(i)) = B(IX(2*i))+A(i)", uint8(0), uint8(2)) // indirect in+out

	f.Fuzz(func(t *testing.T, src string, windowSel, modeSel uint8) {
		body, err := ir.ParseStatements(src)
		if err != nil || len(body) == 0 {
			t.Skip() // the oracle only speaks for parseable programs
		}
		// Cap program size so mutated monsters stay tractable.
		if len(body) > 8 {
			t.Skip()
		}
		refs := 0
		for _, s := range body {
			refs += 1 + len(s.Inputs())
		}
		if refs > 48 {
			t.Skip()
		}

		const iters, elems = 16, 1 << 9
		nest := &ir.Nest{
			Name:  "fuzz",
			Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: iters, Step: 1}},
			Body:  body,
		}
		prog := ir.NewProgram()
		prog.DeclareFromNest(nest, elems, 8)
		prog.Nests = append(prog.Nests, nest)
		store := ir.NewStore(prog)
		store.FillRandom(prog, 1)

		opts := core.DefaultOptions()
		opts.Mode = []mesh.ClusterMode{mesh.AllToAll, mesh.Quadrant, mesh.SNC4}[int(modeSel)%3]
		opts.FixedWindow = []int{0, 1, 2, 4, 8}[int(windowSel)%5]
		// Reuse a high bit of the window selector to toggle the fusion
		// pre-pass, so the same corpus exercises fusion.Coarsen with the
		// race detector as oracle without changing the fuzz signature.
		opts.Fuse = windowSel&0x08 == 0

		res, err := core.Partition(prog, nest, store, opts)
		if err != nil {
			// Rejecting a program is allowed; emitting a racy schedule is not.
			t.Skip()
		}
		rep, err := verify.Check(verify.Input{
			Prog: prog, Nest: res.ScheduleNest(), Store: store,
			Schedule: res.Schedule, Mesh: opts.Mesh, Layout: opts.Layout,
			Translations: res.Translations, Labels: res.LineLabels,
		}, verify.Options{})
		if err != nil {
			t.Fatalf("verifier rejected input for:\n%s\nerror: %v", src, err)
		}
		if len(rep.Violations) > 0 {
			t.Fatalf("partitioner emitted a racy schedule for:\n%s\nwindow=%d mode=%v\n%s",
				src, opts.FixedWindow, opts.Mode, rep.Violations[0])
		}
	})
}

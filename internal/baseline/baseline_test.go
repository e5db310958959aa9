package baseline

import (
	"fmt"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
)

func buildNest(t *testing.T, iters int) (*ir.Program, *ir.Nest, *ir.Store) {
	t.Helper()
	stmts, err := ir.ParseStatements("A(i) = B(i)+C(i)+D(i)+E(i)\nX(i) = Y(i)+C(i)")
	if err != nil {
		t.Fatal(err)
	}
	nest := &ir.Nest{
		Name:  "bench",
		Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: iters, Step: 1}},
		Body:  stmts,
	}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, 4096, 8)
	store := ir.NewStore(prog)
	store.FillRandom(prog, 2)
	return prog, nest, store
}

func opts() core.Options {
	o := core.DefaultOptions()
	o.L2BankBytes = 64 << 10
	o.L1Bytes = 8 << 10
	return o
}

func TestPlaceBasics(t *testing.T) {
	prog, nest, store := buildNest(t, 128)
	res, err := Place(prog, nest, store, opts(), ProfiledLocality)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Schedule.Tasks), 256; got != want {
		t.Errorf("tasks = %d, want %d (one per statement instance)", got, want)
	}
	if res.TotalMovement <= 0 {
		t.Error("no default movement recorded")
	}
	if res.AvgMovement <= 0 || res.MaxMovement < int(res.AvgMovement) {
		t.Errorf("avg=%v max=%d", res.AvgMovement, res.MaxMovement)
	}
	for _, task := range res.Schedule.Tasks {
		if !task.IsRoot {
			t.Fatal("baseline emitted non-root task")
		}
		if task.Node < 0 || int(task.Node) >= opts().Mesh.Nodes() {
			t.Fatalf("invalid node %d", task.Node)
		}
		for _, p := range task.WaitFor {
			if p >= task.ID {
				t.Fatalf("task %d waits on %d", task.ID, p)
			}
		}
	}
}

func TestPlaceDeterministic(t *testing.T) {
	run := func() *Result {
		prog, nest, store := buildNest(t, 64)
		res, err := Place(prog, nest, store, opts(), ProfiledLocality)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalMovement != b.TotalMovement || a.L1HitRate != b.L1HitRate {
		t.Error("baseline not deterministic")
	}
}

func TestStrategiesDiffer(t *testing.T) {
	prog, nest, store := buildNest(t, 128)
	prof, err := Place(prog, nest, store, opts(), ProfiledLocality)
	if err != nil {
		t.Fatal(err)
	}
	prog2, nest2, store2 := buildNest(t, 128)
	block, err := Place(prog2, nest2, store2, opts(), BlockDistribution)
	if err != nil {
		t.Fatal(err)
	}
	prog3, nest3, store3 := buildNest(t, 128)
	mcaff, err := Place(prog3, nest3, store3, opts(), MCAffine)
	if err != nil {
		t.Fatal(err)
	}
	// The profiled default directly minimizes distance-to-data, so it must
	// not move more than the layout-driven block distribution; the MC-affine
	// emulation optimizes a different objective and merely has to be valid.
	if prof.TotalMovement > block.TotalMovement {
		t.Errorf("profiled %d > block %d", prof.TotalMovement, block.TotalMovement)
	}
	if mcaff.TotalMovement <= 0 {
		t.Error("mc-affine produced no movement accounting")
	}
}

func TestPlaceSpreadsLoad(t *testing.T) {
	prog, nest, store := buildNest(t, 36*8)
	res, err := Place(prog, nest, store, opts(), ProfiledLocality)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[mesh.NodeID]int)
	for _, c := range res.ChunkOf {
		counts[c]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	cap := (len(res.ChunkOf) + opts().Mesh.Nodes() - 1) / opts().Mesh.Nodes()
	if max > cap {
		t.Errorf("a core took %d chunks, cap %d", max, cap)
	}
}

// stridedNest builds a data-intensive kernel in the paper's target domain:
// strided accesses touch a fresh cache line per operand per iteration, so
// iteration-granularity placement cannot hide the distance to data behind L1
// reuse (the applications' original L2 miss rates are 16–37%).
func stridedNest(t *testing.T, iters int) (*ir.Program, *ir.Nest, *ir.Store) {
	t.Helper()
	stmts, err := ir.ParseStatements(
		"A(8*i) = B(8*i)+C(16*i)+D(8*i+64)+E(24*i)\nX(8*i) = Y(8*i)+C(16*i)")
	if err != nil {
		t.Fatal(err)
	}
	nest := &ir.Nest{
		Name:  "strided",
		Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: iters, Step: 1}},
		Body:  stmts,
	}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, 1<<16, 8)
	store := ir.NewStore(prog)
	store.FillRandom(prog, 2)
	return prog, nest, store
}

func TestOptimizedBeatsDefaultOnMovement(t *testing.T) {
	prog, nest, store := stridedNest(t, 128)
	def, err := Place(prog, nest, store, opts(), ProfiledLocality)
	if err != nil {
		t.Fatal(err)
	}
	prog2, nest2, store2 := stridedNest(t, 128)
	opt, err := core.Partition(prog2, nest2, store2, opts())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.TotalMovement >= def.TotalMovement {
		t.Errorf("optimized movement %d >= default %d",
			opt.Stats.TotalMovement, def.TotalMovement)
	}
}

func TestBuildMCMap(t *testing.T) {
	prog, nest, store := buildNest(t, 64)
	o := opts()
	placement, err := Place(prog, nest, store, o, ProfiledLocality)
	if err != nil {
		t.Fatal(err)
	}
	mcmap, err := BuildMCMap(prog, nest, store, o, placement)
	if err != nil {
		t.Fatal(err)
	}
	for page, mc := range mcmap {
		if !o.Mesh.IsMemoryController(mc) {
			t.Fatalf("page %d mapped to non-MC node %d", page, mc)
		}
	}
}

// TestBuildMCMapSelectivity: a nest whose iterations each touch a private
// page region gives every page a single voting chunk (a clear winner), so
// those pages are remapped; the map must be non-empty in that case.
func TestBuildMCMapClearWinners(t *testing.T) {
	stmts, err := ir.ParseStatements("A(512*i) = B(512*i)+C(512*i)")
	if err != nil {
		t.Fatal(err)
	}
	nest := &ir.Nest{
		Name:  "private-pages",
		Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: 72, Step: 1}},
		Body:  stmts,
	}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, 1<<16, 8)
	store := ir.NewStore(prog)
	o := opts()
	placement, err := Place(prog, nest, store, o, ProfiledLocality)
	if err != nil {
		t.Fatal(err)
	}
	mcmap, err := BuildMCMap(prog, nest, store, o, placement)
	if err != nil {
		t.Fatal(err)
	}
	if len(mcmap) == 0 {
		t.Fatal("no pages remapped despite clear per-page winners")
	}
}

func TestPlaceRejectsEmptyBody(t *testing.T) {
	prog := ir.NewProgram()
	nest := &ir.Nest{Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: 4, Step: 1}}}
	if _, err := Place(prog, nest, nil, opts(), ProfiledLocality); err == nil {
		t.Error("empty body accepted")
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		ProfiledLocality:  "profiled-locality",
		BlockDistribution: "block-distribution",
		MCAffine:          "mc-affine",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestBaselineScheduleValidates(t *testing.T) {
	prog, nest, store := buildNest(t, 64)
	o := opts()
	res, err := Place(prog, nest, store, o, ProfiledLocality)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ValidateScheduleOn(res.Schedule, o.Mesh, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPlace times the default placement of one nest on a 6x6 and a
// 32x32 mesh; at 32x32 the per-store holder scans dominate.
func BenchmarkPlace(b *testing.B) {
	stmts, err := ir.ParseStatements("A(i) = B(i)+C(i)+D(i)+E(i)\nX(i) = Y(i)+C(i)")
	if err != nil {
		b.Fatal(err)
	}
	nest := &ir.Nest{
		Name:  "bench",
		Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: 4096, Step: 1}},
		Body:  stmts,
	}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, 1<<14, 8)
	store := ir.NewStore(prog)
	store.FillRandom(prog, 2)
	for _, side := range []int{6, 32} {
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			m := mesh.MustNew(side, side)
			_ = m.DistanceTable()
			o := core.DefaultOptions()
			o.Mesh = m
			o.Layout.L2Banks = m.Nodes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Place(prog, nest, store, o, ProfiledLocality); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package core

import (
	"testing"

	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/predictor"
)

func testOpts() Options {
	o := DefaultOptions()
	// Small caches so tests exercise misses quickly.
	o.L2BankBytes = 16 << 10
	o.L1Bytes = 4 << 10
	return o
}

func TestNewLocatorValidates(t *testing.T) {
	o := testOpts()
	o.Layout.L2Banks = 7 // mismatch with 36-node mesh
	if _, err := NewLocator(&o); err == nil {
		t.Error("bank/node mismatch accepted")
	}
}

func TestLocateHomeMatchesLayout(t *testing.T) {
	o := testOpts()
	loc, err := NewLocator(&o)
	if err != nil {
		t.Fatal(err)
	}
	for _, va := range []uint64{0, 64, 4096, 1 << 20} {
		pa := loc.Allocator().Translate(va)
		l := loc.Locate(pa)
		if l.Home != mesh.NodeID(o.Layout.L2Bank(pa)) {
			t.Errorf("home of %#x = %d, want bank %d", pa, l.Home, o.Layout.L2Bank(pa))
		}
		if !o.Mesh.IsMemoryController(l.MC) {
			t.Errorf("MC of %#x = %d is not a memory controller", pa, l.MC)
		}
	}
}

func TestLocateQuadrantModeMCInHomeQuadrant(t *testing.T) {
	o := testOpts()
	o.Mode = mesh.Quadrant
	loc, _ := NewLocator(&o)
	for va := uint64(0); va < 1<<16; va += 4096 {
		l := loc.Locate(va)
		if o.Mesh.Quadrant(l.MC) != o.Mesh.Quadrant(l.Home) {
			t.Fatalf("quadrant mode: MC quadrant %d != home quadrant %d",
				o.Mesh.Quadrant(l.MC), o.Mesh.Quadrant(l.Home))
		}
	}
}

func TestLocateSNC4HomeStaysInPageQuadrant(t *testing.T) {
	o := testOpts()
	o.Mode = mesh.SNC4
	loc, _ := NewLocator(&o)
	for page := uint64(0); page < 32; page++ {
		wantQ := int(page % 4)
		for off := uint64(0); off < o.Layout.PageBytes; off += 64 * 7 {
			l := loc.Locate(page*o.Layout.PageBytes + off)
			if o.Mesh.Quadrant(l.Home) != wantQ {
				t.Fatalf("SNC-4: page %d line home quadrant = %d, want %d",
					page, o.Mesh.Quadrant(l.Home), wantQ)
			}
		}
	}
}

func TestLocateResidencyAndNode(t *testing.T) {
	o := testOpts()
	o.IdealAnalysis = true
	loc, _ := NewLocator(&o)
	first := loc.Locate(0x40)
	if first.ActualHit {
		t.Error("cold access reported as L2 hit")
	}
	if first.Node() != first.MC {
		t.Error("predicted miss should locate at the MC")
	}
	second := loc.Locate(0x40)
	if !second.ActualHit {
		t.Error("warm access reported as miss")
	}
	if second.Node() != second.Home {
		t.Error("predicted hit should locate at the home bank")
	}
}

func TestLocateNoPredictorAssumesOnChip(t *testing.T) {
	o := testOpts()
	o.Predictor = nil
	o.IdealAnalysis = false
	loc, _ := NewLocator(&o)
	l := loc.Locate(0x40) // actual miss, but no predictor -> assume hit
	if !l.PredictedHit {
		t.Error("without a predictor the compiler should assume on-chip data")
	}
}

func TestLocateWithPredictorScoresAccuracy(t *testing.T) {
	o := testOpts()
	o.Predictor = predictor.MustNew(predictor.Config{
		L2TotalBytes: o.L2BankBytes * uint64(o.Mesh.Nodes()),
		LineBytes:    o.Layout.LineBytes,
		Ways:         o.L2Ways,
		SampleMod:    1,
	})
	loc, _ := NewLocator(&o)
	for i := 0; i < 200; i++ {
		loc.Locate(uint64(i%10) * 64)
	}
	if o.Predictor.Observations() != 200 {
		t.Errorf("observations = %d", o.Predictor.Observations())
	}
	if acc := o.Predictor.Accuracy(); acc < 0.9 {
		t.Errorf("full-sample accuracy on a tiny hot set = %v", acc)
	}
}

func TestLocateRefAnalyzableFraction(t *testing.T) {
	o := testOpts()
	loc, _ := NewLocator(&o)
	prog := ir.NewProgram()
	nest := &ir.Nest{
		Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: 4, Step: 1}},
		Body:  []*ir.Statement{ir.MustParseStatement("A(i) = B(i)+X(Y(i))")},
	}
	prog.DeclareFromNest(nest, 64, 8)
	store := ir.NewStore(prog)
	env := map[string]int{"i": 1}
	for _, r := range nest.Body[0].AllRefs() {
		if _, ok := loc.LocateRef(prog, r, env, store); !ok {
			t.Errorf("LocateRef(%s) failed", r)
		}
	}
	// Refs: A(i), B(i), X(Y(i)), Y(i) -> 3 of 4 analyzable.
	if got := loc.AnalyzableFraction(); got != 0.75 {
		t.Errorf("AnalyzableFraction = %v, want 0.75", got)
	}
}

func TestLocateRefIndirectWithoutStoreFails(t *testing.T) {
	o := testOpts()
	loc, _ := NewLocator(&o)
	prog := ir.NewProgram()
	prog.AddArray("X", 64, 8)
	prog.AddArray("Y", 64, 8)
	ref := ir.MustParseStatement("q = X(Y(i))").Inputs()[0]
	if _, ok := loc.LocateRef(prog, ref, map[string]int{"i": 0}, nil); ok {
		t.Error("indirect ref located without runtime store")
	}
}

func TestL2StatsAccumulate(t *testing.T) {
	o := testOpts()
	o.IdealAnalysis = true
	loc, _ := NewLocator(&o)
	loc.Locate(0x40)
	loc.Locate(0x40)
	st := loc.l2.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("L2 stats = %+v", st)
	}
}

// TestLineLabelsNameFirstToucher: each located line is named after the
// first reference instance that resolved to it, whatever touches it later;
// lines located only through Locate carry no label.
func TestLineLabelsNameFirstToucher(t *testing.T) {
	o := testOpts()
	loc, _ := NewLocator(&o)
	prog := ir.NewProgram()
	prog.AddArray("A", 64, 8) // 8 elements per 64-byte line
	prog.AddArray("B", 64, 8)
	a := ir.MustParseStatement("q = A(i)").Inputs()[0]
	b := ir.MustParseStatement("q = B(2*i+1)").Inputs()[0]
	lines := map[string]uint64{}
	for _, i := range []int{3, 1, 2, 0} {
		env := map[string]int{"i": i}
		for _, r := range []*ir.Ref{a, b} {
			ll, ok := loc.LocateRef(prog, r, env, nil)
			if !ok {
				t.Fatalf("LocateRef(%s) at i=%d failed", r, i)
			}
			if i == 3 { // every ref's line is first touched at i=3
				lines[r.Array] = ll.Line
			}
		}
	}
	loc.Locate(1 << 30) // an unlabeled line
	got := loc.LineLabels()
	want := map[uint64]string{lines["A"]: "A[3]", lines["B"]: "B[7]"}
	if len(got) != len(want) {
		t.Fatalf("LineLabels = %v, want %v", got, want)
	}
	for line, label := range want {
		if got[line] != label {
			t.Errorf("label of %#x = %q, want %q (all: %v)", line, got[line], label, got)
		}
	}
}

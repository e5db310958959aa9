package addrmap

import (
	"fmt"
	"testing"
	"testing/quick"
)

func newAllocator(t *testing.T) *Allocator {
	t.Helper()
	a, err := NewAllocator(DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// checkColorInvariant verifies that every established translation preserves
// the page color; it returns an error describing the first violation.
func checkColorInvariant(a *Allocator) error {
	mod := a.layout.ColorModulus()
	for vp, pp := range a.pageTable {
		if vp%mod != pp%mod {
			return fmt.Errorf("addrmap: page color violated: va page %d (color %d) -> pa page %d (color %d)",
				vp, vp%mod, pp, pp%mod)
		}
	}
	return nil
}

func TestDefaultLayoutValid(t *testing.T) {
	if err := DefaultLayout().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadLayouts(t *testing.T) {
	bad := []Layout{
		{LineBytes: 0, PageBytes: 4096, L2Banks: 4, Channels: 4},
		{LineBytes: 64, PageBytes: 100, L2Banks: 4, Channels: 4},
		{LineBytes: 64, PageBytes: 4096, L2Banks: 0, Channels: 4},
		{LineBytes: 64, PageBytes: 4096, L2Banks: 4, Channels: 0},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layout %d validated, want error", i)
		}
	}
}

// TestFigure2BitFieldEquivalence checks that for power-of-two component
// counts the modular interleaving reproduces the paper's bit-field mapping:
// with 32 L2 banks and 64B lines, bank = bits 6..10 of the address; with 4
// channels and 4KB pages, channel = bits 12..13.
func TestFigure2BitFieldEquivalence(t *testing.T) {
	l := Layout{LineBytes: 64, PageBytes: 4096, L2Banks: 32, Channels: 4}
	addrs := []uint64{0, 64, 4096, 0xdeadbe40, 1 << 30, (1 << 19) - 64}
	for _, pa := range addrs {
		if got, want := l.L2Bank(pa), int((pa>>6)&0x1f); got != want {
			t.Errorf("L2Bank(%#x) = %d, want bits[10:6] = %d", pa, got, want)
		}
		if got, want := l.Channel(pa), int((pa>>12)&0x3); got != want {
			t.Errorf("Channel(%#x) = %d, want bits[13:12] = %d", pa, got, want)
		}
	}
}

func TestL2BankCoversAllBanks(t *testing.T) {
	l := DefaultLayout() // 36 banks
	seen := make(map[int]bool)
	for line := uint64(0); line < 200; line++ {
		b := l.L2Bank(line * l.LineBytes)
		if b < 0 || b >= l.L2Banks {
			t.Fatalf("bank %d out of range", b)
		}
		seen[b] = true
	}
	if len(seen) != 36 {
		t.Errorf("only %d distinct banks seen, want 36", len(seen))
	}
}

func TestColorModulusPreservesHomes(t *testing.T) {
	l := DefaultLayout()
	mod := l.ColorModulus()
	if mod == 0 {
		t.Fatal("ColorModulus = 0")
	}
	// Two addresses whose pages are congruent mod ColorModulus must have the
	// same bank for corresponding lines, and the same channel.
	for trial := uint64(0); trial < 20; trial++ {
		p1 := trial
		p2 := trial + 3*mod
		for lineOff := uint64(0); lineOff < l.LinesPerPage(); lineOff += 7 {
			a1 := p1*l.PageBytes + lineOff*l.LineBytes
			a2 := p2*l.PageBytes + lineOff*l.LineBytes
			if l.L2Bank(a1) != l.L2Bank(a2) {
				t.Fatalf("pages %d and %d (same color) disagree on bank of line %d", p1, p2, lineOff)
			}
		}
		if l.Channel(p1*l.PageBytes) != l.Channel(p2*l.PageBytes) {
			t.Fatalf("pages %d and %d (same color) disagree on channel", p1, p2)
		}
	}
}

func TestTranslateStableAndColorPreserving(t *testing.T) {
	a := newAllocator(t)
	l := DefaultLayout()

	va := uint64(0x12345678)
	pa1 := a.Translate(va)
	pa2 := a.Translate(va)
	if pa1 != pa2 {
		t.Fatalf("translation not stable: %#x vs %#x", pa1, pa2)
	}
	if pa1%l.PageBytes != va%l.PageBytes {
		t.Errorf("page offset not preserved: va %#x -> pa %#x", va, pa1)
	}
	// Same page, different offset -> same physical page.
	pa3 := a.Translate(va + 8)
	if l.PageIndex(pa3) != l.PageIndex(pa1) {
		t.Error("same virtual page translated to different physical pages")
	}
}

func TestTranslatePreservesBankAndChannel(t *testing.T) {
	a := newAllocator(t)
	l := DefaultLayout()
	if err := quick.Check(func(raw uint64) bool {
		va := raw % (1 << 32)
		pa := a.Translate(va)
		return l.L2Bank(va) == l.L2Bank(pa) && l.Channel(va) == l.Channel(pa)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if err := checkColorInvariant(a); err != nil {
		t.Error(err)
	}
}

func TestTranslateDistinctPagesGetDistinctFrames(t *testing.T) {
	a := newAllocator(t)
	l := DefaultLayout()
	frames := make(map[uint64]uint64)
	for vp := uint64(0); vp < 500; vp++ {
		pa := a.Translate(vp * l.PageBytes)
		pf := l.PageIndex(pa)
		if prev, dup := frames[pf]; dup {
			t.Fatalf("virtual pages %d and %d share physical frame %d", prev, vp, pf)
		}
		frames[pf] = vp
	}
}

func TestLcmGcd(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{4, 6, 12}, {36, 64, 576}, {1, 7, 7}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := lcm(c.a, c.b); got != c.want {
			t.Errorf("lcm(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLineHelpers(t *testing.T) {
	l := DefaultLayout()
	if l.LinesPerPage() != 64 {
		t.Errorf("LinesPerPage = %d, want 64", l.LinesPerPage())
	}
	if l.LineAddr(130) != 128 {
		t.Errorf("LineAddr(130) = %d, want 128", l.LineAddr(130))
	}
	if l.LineIndex(130) != 2 {
		t.Errorf("LineIndex(130) = %d, want 2", l.LineIndex(130))
	}
}

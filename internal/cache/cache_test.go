package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config { return Config{SizeBytes: 512, LineBytes: 64, Ways: 2} } // 4 sets x 2 ways

func TestConfigValidate(t *testing.T) {
	good := small()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Sets() != 4 {
		t.Errorf("Sets = %d, want 4", good.Sets())
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 2},
		{SizeBytes: 512, LineBytes: 0, Ways: 2},
		{SizeBytes: 512, LineBytes: 64, Ways: 0},
		{SizeBytes: 500, LineBytes: 64, Ways: 2},
		{SizeBytes: 512, LineBytes: 64, Ways: 3},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, c)
		}
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := MustNew(small(), 1)
	if c.Access(0, 0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0, 0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0, 0x1038) { // same line (64B)
		t.Error("same-line access missed")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 2.0/3.0 {
		t.Errorf("HitRate = %v", st.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(small(), 1) // 4 sets, 2 ways; lines mapping to set 0: addr multiples of 256
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(0, a)
	c.Access(0, b)
	c.Access(0, a) // a is MRU, b is LRU
	c.Access(0, d) // evicts b
	if !c.Contains(0, a) {
		t.Error("a evicted, should have been b")
	}
	if c.Contains(0, b) {
		t.Error("b still resident")
	}
	if !c.Contains(0, d) {
		t.Error("d not resident")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := MustNew(small(), 1)
	c.Access(0, 0)
	c.Access(0, 256) // set 0 full: LRU=0, MRU=256
	// Probing 0 must not promote it.
	if !c.Contains(0, 0) {
		t.Fatal("0 not resident")
	}
	c.Access(0, 512) // should evict 0 (still LRU despite the probe)
	if c.Contains(0, 0) {
		t.Error("Contains perturbed LRU order")
	}
	st := c.Stats()
	if st.Accesses() != 3 {
		t.Errorf("Contains counted as access: %+v", st)
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(small(), 1)
	c.Access(0, 0x40)
	if !c.Invalidate(0, 0x40) {
		t.Error("Invalidate missed resident line")
	}
	if c.Invalidate(0, 0x40) {
		t.Error("Invalidate hit absent line")
	}
	if c.Contains(0, 0x40) {
		t.Error("line still resident after invalidate")
	}
}

// residentLines returns the number of resident lines over all the caches.
func residentLines(c *Cache) int {
	n := 0
	for _, s := range c.dir {
		n += int(s.len)
	}
	return n
}

// Property: occupancy never exceeds capacity, and a line just accessed is
// always resident.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	cfg := Config{SizeBytes: 1024, LineBytes: 64, Ways: 4}
	c := MustNew(cfg, 1)
	rng := rand.New(rand.NewSource(9))
	maxLines := int(cfg.SizeBytes / cfg.LineBytes)
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(1 << 16))
		c.Access(0, addr)
		if !c.Contains(0, addr) {
			t.Fatalf("line %#x absent immediately after access", addr)
		}
		if residentLines(c) > maxLines {
			t.Fatalf("occupancy %d exceeds capacity %d", residentLines(c), maxLines)
		}
	}
	st := c.Stats()
	if st.Accesses() != 5000 {
		t.Errorf("accesses = %d", st.Accesses())
	}
	if st.Misses != st.Evictions+int64(residentLines(c)) {
		t.Errorf("misses (%d) != evictions (%d) + resident (%d)", st.Misses, st.Evictions, residentLines(c))
	}
}

// Property: hit/miss behaviour is a pure function of the access sequence.
func TestDeterministic(t *testing.T) {
	cfg := Config{SizeBytes: 512, LineBytes: 64, Ways: 2}
	if err := quick.Check(func(addrs []uint16) bool {
		c1, c2 := MustNew(cfg, 1), MustNew(cfg, 1)
		for _, a := range addrs {
			if c1.Access(0, uint64(a)) != c2.Access(0, uint64(a)) {
				return false
			}
		}
		return c1.Stats() == c2.Stats()
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A working set exactly equal to capacity must fully hit on the second pass
// (no conflict misses when lines spread evenly).
func TestFullCapacityWorkingSet(t *testing.T) {
	cfg := Config{SizeBytes: 4096, LineBytes: 64, Ways: 4}
	c := MustNew(cfg, 1)
	lines := int(cfg.SizeBytes / cfg.LineBytes)
	for i := 0; i < lines; i++ {
		c.Access(0, uint64(i)*cfg.LineBytes)
	}
	c.stats = Stats{}
	for i := 0; i < lines; i++ {
		c.Access(0, uint64(i)*cfg.LineBytes)
	}
	if st := c.Stats(); st.Misses != 0 {
		t.Errorf("second pass misses = %d, want 0", st.Misses)
	}
}

// A working set larger than capacity accessed cyclically with LRU must miss
// every time (the classic LRU worst case) — this is the pollution effect
// that makes very large statement windows unprofitable (Section 4.4).
func TestCyclicThrashing(t *testing.T) {
	cfg := Config{SizeBytes: 512, LineBytes: 64, Ways: 8} // fully associative, 8 lines
	c := MustNew(cfg, 1)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 9; i++ { // 9 lines > 8 capacity
			c.Access(0, uint64(i)*64)
		}
	}
	if st := c.Stats(); st.Hits != 0 {
		t.Errorf("cyclic overflow produced %d hits, want 0", st.Hits)
	}
}

// Edge cases surfaced while writing the bytehops unit fixtures: degenerate
// capacities, zero-byte access patterns, and single-sample statistics.

// A single-line cache (capacity == line size, one way) is the smallest legal
// configuration; every distinct line must evict the previous one.
func TestSingleLineCache(t *testing.T) {
	c := MustNew(Config{SizeBytes: 64, LineBytes: 64, Ways: 1}, 1)
	if c.cfg.Sets() != 1 {
		t.Fatalf("Sets = %d, want 1", c.cfg.Sets())
	}
	if c.Access(0, 0) {
		t.Error("cold access hit")
	}
	if !c.Access(0, 63) {
		t.Error("same-line access missed") // 0 and 63 share the line
	}
	if c.Access(0, 64) {
		t.Error("new line hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses, 1 eviction", s)
	}
	if residentLines(c) != 1 {
		t.Errorf("resident lines = %d, want 1", residentLines(c))
	}
}

// Address zero is a valid line address: the "zero-byte transfer" kernels map
// their first array element there.
func TestAddressZero(t *testing.T) {
	c := MustNew(small(), 1)
	if c.Contains(0, 0) {
		t.Error("empty cache contains line 0")
	}
	c.Access(0, 0)
	if !c.Contains(0, 0) {
		t.Error("line 0 not resident after access")
	}
	if !c.Invalidate(0, 0) {
		t.Error("Invalidate(0) found nothing")
	}
	if c.Invalidate(0, 0) {
		t.Error("double Invalidate(0) succeeded")
	}
}

// Contains and a failed Invalidate must not perturb statistics or LRU
// state: the compiler-side reuse model probes without side effects.
func TestProbesAreSideEffectFree(t *testing.T) {
	c := MustNew(small(), 1)
	c.Access(0, 0)
	c.Access(0, 512) // same set as 0 in the 4-set config
	before := c.Stats()
	c.Contains(0, 0)
	c.Contains(0, 4096)
	c.Invalidate(0, 4096)
	if got := c.Stats(); got != before {
		t.Errorf("probe changed stats: %+v -> %+v", before, got)
	}
	// LRU order must still evict 0 (least recent) on the next conflict.
	c.Access(0, 1024)
	if c.Contains(0, 0) {
		t.Error("probe refreshed LRU position of line 0")
	}
	if !c.Contains(0, 512) {
		t.Error("wrong line evicted after probes")
	}
}

// Single-sample and no-sample statistics: HitRate must be a well-defined
// ratio, never NaN.
func TestStatsSingleSample(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 || s.Accesses() != 0 {
		t.Errorf("zero stats: rate %v, accesses %d", s.HitRate(), s.Accesses())
	}
	s = Stats{Hits: 1}
	if s.HitRate() != 1 {
		t.Errorf("single-hit rate = %v, want 1", s.HitRate())
	}
	s = Stats{Misses: 1}
	if s.HitRate() != 0 {
		t.Errorf("single-miss rate = %v, want 0", s.HitRate())
	}
}

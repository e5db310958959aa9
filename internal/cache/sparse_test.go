package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// denseLRU is the reference model: the original dense storage, one LRU
// slice per set allocated up front. The sparse Cache must match it event
// for event.
type denseLRU struct {
	cfg   Config
	sets  [][]uint64
	stats Stats
}

func newDenseLRU(cfg Config) *denseLRU {
	return &denseLRU{cfg: cfg, sets: make([][]uint64, cfg.Sets())}
}

func (d *denseLRU) setOf(line uint64) int {
	return int(line / d.cfg.LineBytes % uint64(len(d.sets)))
}

func (d *denseLRU) access(addr uint64) bool {
	line := addr &^ (d.cfg.LineBytes - 1)
	si := d.setOf(line)
	set := d.sets[si]
	for i, tag := range set {
		if tag == line {
			copy(set[i:], set[i+1:])
			set[len(set)-1] = line
			d.stats.Hits++
			return true
		}
	}
	d.stats.Misses++
	if len(set) == d.cfg.Ways {
		copy(set, set[1:])
		set[len(set)-1] = line
		d.stats.Evictions++
	} else {
		d.sets[si] = append(set, line)
	}
	return false
}

func (d *denseLRU) contains(addr uint64) bool {
	line := addr &^ (d.cfg.LineBytes - 1)
	for _, tag := range d.sets[d.setOf(line)] {
		if tag == line {
			return true
		}
	}
	return false
}

func (d *denseLRU) invalidate(addr uint64) bool {
	line := addr &^ (d.cfg.LineBytes - 1)
	si := d.setOf(line)
	set := d.sets[si]
	for i, tag := range set {
		if tag == line {
			d.sets[si] = append(set[:i], set[i+1:]...)
			return true
		}
	}
	return false
}

func (d *denseLRU) lines() int {
	n := 0
	for _, s := range d.sets {
		n += len(s)
	}
	return n
}

// TestSparseMatchesDenseReference drives an n-cache model and n dense
// references (one per index) with the same seeded mix of Access/Contains/
// Invalidate traffic on interleaved cache indices, and
// requires identical results after every operation: each result, the
// aggregate Stats against the references' summed counters, and the resident
// line count. Addresses concentrate on a few hot sets (so sets fill and
// evict) with a share of uniformly random lines across every set; the same
// line reaches several caches, which must keep separate contents.
func TestSparseMatchesDenseReference(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 256, LineBytes: 64, Ways: 4},      // 1 set
		{SizeBytes: 512, LineBytes: 64, Ways: 1},      // 1 way, 8 sets
		{SizeBytes: 512, LineBytes: 64, Ways: 2},      // 4 sets x 2 ways
		{SizeBytes: 1 << 20, LineBytes: 64, Ways: 16}, // an L2 bank
	}
	for gi, cfg := range geoms {
		t.Run(fmt.Sprintf("%dsets_%dways", cfg.Sets(), cfg.Ways), func(t *testing.T) {
			for _, n := range []int{1, 3, 16} {
				t.Run(fmt.Sprintf("%dcaches", n), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100 + gi*31 + n)))
					sets := uint64(cfg.Sets())
					hot := min(sets, 5)
					addr := func() uint64 {
						var line uint64
						if rng.Intn(4) == 0 {
							line = uint64(rng.Int63n(int64(8 * sets * uint64(cfg.Ways))))
						} else {
							tag := uint64(rng.Intn(3 * cfg.Ways))
							line = tag*sets + uint64(rng.Int63n(int64(hot)))
						}
						return line*cfg.LineBytes + uint64(rng.Int63n(int64(cfg.LineBytes)))
					}
					c := MustNew(cfg, n)
					refs := make([]*denseLRU, n)
					for i := range refs {
						refs[i] = newDenseLRU(cfg)
					}
					for op := 0; op < 20000; op++ {
						a, i := addr(), rng.Intn(n)
						ref := refs[i]
						switch r := rng.Intn(100); {
						case r < 60:
							if got, want := c.Access(i, a), ref.access(a); got != want {
								t.Fatalf("op %d: Access(%d, %#x) = %v, reference %v", op, i, a, got, want)
							}
						case r < 80:
							if got, want := c.Contains(i, a), ref.contains(a); got != want {
								t.Fatalf("op %d: Contains(%d, %#x) = %v, reference %v", op, i, a, got, want)
							}
						default:
							if got, want := c.Invalidate(i, a), ref.invalidate(a); got != want {
								t.Fatalf("op %d: Invalidate(%d, %#x) = %v, reference %v", op, i, a, got, want)
							}
						}
						var stats Stats
						lines := 0
						for _, d := range refs {
							stats.Hits += d.stats.Hits
							stats.Misses += d.stats.Misses
							stats.Evictions += d.stats.Evictions
							lines += d.lines()
						}
						if c.Stats() != stats {
							t.Fatalf("op %d: Stats = %+v, references %+v", op, c.Stats(), stats)
						}
						if got := residentLines(c); got != lines {
							t.Fatalf("op %d: resident lines = %d, references %d", op, got, lines)
						}
					}
				})
			}
		})
	}
}

// TestNewRejectsBadCount: a model of no caches, or of more ways than a set's
// span can count, is an error, and an index outside [0, n) panics instead of
// reaching another cache's sets.
func TestNewRejectsBadCount(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := New(small(), n); err == nil {
			t.Errorf("New(cfg, %d) succeeded", n)
		}
	}
	if _, err := New(Config{SizeBytes: 64 << 16, LineBytes: 64, Ways: 1 << 16}, 1); err == nil {
		t.Error("New accepted more ways than a span can hold")
	}
	c := MustNew(small(), 2)
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Access(%d, 0) on 2 caches did not panic", i)
				}
			}()
			c.Access(i, 0)
		}()
	}
}

// bytesPerOp returns the average heap bytes one call of f allocates,
// measured by runtime.MemStats.TotalAlloc over n calls.
func bytesPerOp(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestNewIsConstantSize: constructing one 1 MB/16-way bank (1,024 sets), or
// a model of 1,024 of them (a 32x32 mesh's L2), allocates a small fixed
// amount, independent of capacity and of the cache count. Per-set storage
// built up front would cost 24 bytes per set, 24 KB per bank; a per-cache
// object with its own map, a few hundred bytes per bank.
func TestNewIsConstantSize(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 16}
	const limit = 256
	for _, n := range []int{1, 1024} {
		var sink *Cache
		if got := bytesPerOp(200, func() { sink = MustNew(cfg, n) }); got > limit {
			t.Errorf("New(1 MB/16-way, %d) allocates %d B, want <= %d", n, got, limit)
		}
		_ = sink
	}
}

func BenchmarkNew(b *testing.B) {
	cfg := Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

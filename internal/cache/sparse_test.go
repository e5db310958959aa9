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

func (d *denseLRU) flush() {
	for i := range d.sets {
		d.sets[i] = nil
	}
	d.stats = Stats{}
}

func (d *denseLRU) lines() int {
	n := 0
	for _, s := range d.sets {
		n += len(s)
	}
	return n
}

// TestSparseMatchesDenseReference drives the sparse cache and the dense
// reference with the same seeded mix of Access/Contains/Invalidate/Flush/
// ResetStats traffic and requires identical results after every operation.
// Addresses concentrate on a few hot sets (so sets fill and evict) with a
// share of uniformly random lines across every set.
func TestSparseMatchesDenseReference(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 256, LineBytes: 64, Ways: 4},      // 1 set
		{SizeBytes: 512, LineBytes: 64, Ways: 1},      // 1 way, 8 sets
		{SizeBytes: 512, LineBytes: 64, Ways: 2},      // 4 sets x 2 ways
		{SizeBytes: 1 << 20, LineBytes: 64, Ways: 16}, // an L2 bank
	}
	for gi, cfg := range geoms {
		t.Run(fmt.Sprintf("%dsets_%dways", cfg.Sets(), cfg.Ways), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + gi)))
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
			c, ref := MustNew(cfg), newDenseLRU(cfg)
			for op := 0; op < 20000; op++ {
				a := addr()
				switch r := rng.Intn(100); {
				case r < 60:
					if got, want := c.Access(a), ref.access(a); got != want {
						t.Fatalf("op %d: Access(%#x) = %v, reference %v", op, a, got, want)
					}
				case r < 80:
					if got, want := c.Contains(a), ref.contains(a); got != want {
						t.Fatalf("op %d: Contains(%#x) = %v, reference %v", op, a, got, want)
					}
				case r < 97:
					if got, want := c.Invalidate(a), ref.invalidate(a); got != want {
						t.Fatalf("op %d: Invalidate(%#x) = %v, reference %v", op, a, got, want)
					}
				case r < 99:
					c.ResetStats()
					ref.stats = Stats{}
				default:
					c.Flush()
					ref.flush()
				}
				if c.Stats() != ref.stats {
					t.Fatalf("op %d: Stats = %+v, reference %+v", op, c.Stats(), ref.stats)
				}
				if c.Lines() != ref.lines() {
					t.Fatalf("op %d: Lines = %d, reference %d", op, c.Lines(), ref.lines())
				}
			}
		})
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

// TestNewIsConstantSize: constructing a 1 MB/16-way bank (1,024 sets)
// allocates a small fixed amount, independent of capacity. Per-set storage
// built up front would cost 24 bytes per set, 24 KB here.
func TestNewIsConstantSize(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 16}
	const limit = 256
	var sink *Cache
	if got := bytesPerOp(200, func() { sink = MustNew(cfg) }); got > limit {
		t.Errorf("New(1 MB/16-way) allocates %d B, want <= %d", got, limit)
	}
	_ = sink
}

func BenchmarkNew(b *testing.B) {
	cfg := Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

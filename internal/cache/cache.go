// Package cache implements the set-associative LRU caches the compiler-side
// models are built on: the locator's per-bank L2 residency model (SNUCA
// home banks, Section 4.1), the L2 hit/miss predictor's sampled shadow tags,
// and the per-node shadow L1s both emitters use to decide which fetches hit.
// The caches operate on cache-line addresses and track hit/miss/eviction
// statistics.
//
// One Cache models n same-shaped caches (one per mesh node, say), addressed
// by index. Storage is sparse: a directory maps each touched (cache, set)
// pair to that set's span of one shared tag arena, so construction is O(1)
// whatever n and the capacity are, and memory grows with the lines a pass
// actually brings in. A 1,024-bank L2 model over a short nest costs a few
// hundred lines, not 1,024 full tag arrays, and no per-cache object or map.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes uint64
	// LineBytes is the cache line size.
	LineBytes uint64
	// Ways is the set associativity.
	Ways int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LineBytes == 0 || c.SizeBytes == 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: config fields must be positive: %+v", c)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%uint64(c.Ways) != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int {
	return int(c.SizeBytes / c.LineBytes / uint64(c.Ways))
}

// Stats counts cache events since the last Reset.
type Stats struct {
	Hits, Misses, Evictions int64
}

// Accesses returns hits plus misses.
func (s Stats) Accesses() int64 { return s.Hits + s.Misses }

// HitRate returns hits / accesses, or 0 when there were no accesses.
func (s Stats) HitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Hits) / float64(a)
	}
	return 0
}

// Cache is n set-associative caches of one configuration, each with true-LRU
// replacement and its own contents, addressed by index in [0, n); the
// statistics count all of them together. It is not safe for concurrent use:
// each model owns its caches and drives them from one goroutine. Memory is
// proportional to the (cache, set) pairs touched, each holding at most Ways
// lines.
type Cache struct {
	cfg     Config
	n       int
	numSets uint64
	// dir maps a touched pair's key, cache*numSets+set, to the span of tags
	// holding the set's LRU list of line addresses, most recent last.
	dir  map[uint64]span
	tags []uint64
	// free[c] lists the offsets of released spans of capacity 1<<c: a set
	// outgrowing its span moves to one twice the size, and the next set to
	// grow to the old size reuses it.
	free  [][]int32
	stats Stats
}

// span is a set's region of the tag arena: tags[off:off+len], with room for
// cap lines. cap is a power of two; a full set holds Ways lines.
type span struct {
	off      int32
	len, cap uint16
}

// New creates n caches of one configuration, which must be valid, and n must
// be positive. Construction is O(1): no per-cache or per-set storage exists
// until a set is first accessed.
func New(cfg Config, n int) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("cache: need at least one cache, got %d", n)
	}
	if cfg.Ways > 1<<15 {
		return nil, fmt.Errorf("cache: %d ways exceed the model's 32768", cfg.Ways)
	}
	return &Cache{cfg: cfg, n: n, numSets: uint64(cfg.Sets()), dir: make(map[uint64]span)}, nil
}

// MustNew is New panicking on error.
func MustNew(cfg Config, n int) *Cache {
	c, err := New(cfg, n)
	if err != nil {
		panic(err)
	}
	return c
}

// key returns the directory key of the set of cache i that holds line.
func (c *Cache) key(i int, line uint64) uint64 {
	if uint(i) >= uint(c.n) {
		panic("cache: cache index out of range")
	}
	return uint64(i)*c.numSets + line/c.cfg.LineBytes%c.numSets
}

// set returns the lines of span s, least recent first.
func (c *Cache) set(s span) []uint64 {
	return c.tags[s.off : s.off+int32(s.len)]
}

// Access looks up the line containing addr in cache i, updating LRU state
// and statistics. On a miss the line is brought in, possibly evicting the
// LRU line of its set. It returns true on a hit.
func (c *Cache) Access(i int, addr uint64) bool {
	line := addr &^ (c.cfg.LineBytes - 1)
	k := c.key(i, line)
	s := c.dir[k] // an untouched set reads as an empty span
	set := c.set(s)
	for j, tag := range set {
		if tag == line {
			// Move to MRU position.
			copy(set[j:], set[j+1:])
			set[len(set)-1] = line
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	if len(set) == c.cfg.Ways {
		copy(set, set[1:])
		set[len(set)-1] = line
		c.stats.Evictions++
		return false
	}
	if s.len == s.cap {
		s = c.grow(s)
	}
	c.tags[s.off+int32(s.len)] = line
	s.len++
	c.dir[k] = s
	return false
}

// grow moves s to a span of twice its capacity (one, for a new set), and
// releases the old one.
func (c *Cache) grow(s span) span {
	size := max(1, 2*int(s.cap))
	class := bits.TrailingZeros(uint(size))
	for len(c.free) <= class {
		c.free = append(c.free, nil)
	}
	var off int32
	if l := c.free[class]; len(l) > 0 {
		off, c.free[class] = l[len(l)-1], l[:len(l)-1]
	} else {
		off = int32(len(c.tags))
		c.tags = append(c.tags, make([]uint64, size)...)
	}
	copy(c.tags[off:], c.set(s))
	if s.cap > 0 {
		old := bits.TrailingZeros(uint(s.cap))
		c.free[old] = append(c.free[old], s.off)
	}
	return span{off: off, len: s.len, cap: uint16(size)}
}

// Contains probes cache i for the line containing addr without touching LRU
// state or statistics. The compiler-side L1 reuse model uses it to ask
// "would this be a hit?" without perturbing the cache.
func (c *Cache) Contains(i int, addr uint64) bool {
	line := addr &^ (c.cfg.LineBytes - 1)
	for _, tag := range c.set(c.dir[c.key(i, line)]) {
		if tag == line {
			return true
		}
	}
	return false
}

// Invalidate removes the line containing addr from cache i if present,
// returning whether it was.
func (c *Cache) Invalidate(i int, addr uint64) bool {
	line := addr &^ (c.cfg.LineBytes - 1)
	k := c.key(i, line)
	s := c.dir[k]
	set := c.set(s)
	for j, tag := range set {
		if tag == line {
			copy(set[j:], set[j+1:])
			s.len--
			c.dir[k] = s
			return true
		}
	}
	return false
}

// Stats returns the event counters of all the caches together.
func (c *Cache) Stats() Stats { return c.stats }

// Package cache implements the set-associative LRU caches the compiler-side
// models are built on: the locator's per-bank L2 residency model (SNUCA
// home banks, Section 4.1), the L2 hit/miss predictor's sampled shadow tags,
// and the per-node shadow L1s both emitters use to decide which fetches hit.
// The caches operate on cache-line addresses and track hit/miss/eviction
// statistics.
//
// Storage is sparse: a cache holds only the sets it has touched, so
// construction is O(1) and memory grows with the lines a pass actually
// brings in, not with the modeled capacity. A 1,024-bank L2 model over a
// short nest costs a few hundred lines, not 1,024 full tag arrays.
package cache

import "fmt"

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

// Cache is a set-associative cache with true-LRU replacement. It is not
// safe for concurrent use: each model owns its caches and drives them from
// one goroutine. Memory is proportional to the sets touched since the last
// Flush, each holding at most Ways lines.
type Cache struct {
	cfg     Config
	numSets uint64
	sets    map[uint64][]uint64 // touched set index -> LRU list of line addresses, most recent last
	stats   Stats
}

// New creates a cache. The configuration must be valid. Construction is
// O(1): no per-set storage exists until a set is first accessed.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{cfg: cfg, numSets: uint64(cfg.Sets()), sets: make(map[uint64][]uint64)}, nil
}

// MustNew is New panicking on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setOf(addr uint64) uint64 {
	return addr / c.cfg.LineBytes % c.numSets
}

// Access looks up the line containing addr, updating LRU state and
// statistics. On a miss the line is brought in, possibly evicting the LRU
// line of its set. It returns true on a hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr &^ (c.cfg.LineBytes - 1)
	si := c.setOf(line)
	set := c.sets[si]
	for i, tag := range set {
		if tag == line {
			// Move to MRU position.
			copy(set[i:], set[i+1:])
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
	} else {
		c.sets[si] = append(set, line)
	}
	return false
}

// Contains probes for the line containing addr without touching LRU state or
// statistics. The compiler-side L1 reuse model uses it to ask "would this be
// a hit?" without perturbing the cache.
func (c *Cache) Contains(addr uint64) bool {
	line := addr &^ (c.cfg.LineBytes - 1)
	for _, tag := range c.sets[c.setOf(line)] {
		if tag == line {
			return true
		}
	}
	return false
}

// Invalidate removes the line containing addr if present, returning whether
// it was.
func (c *Cache) Invalidate(addr uint64) bool {
	line := addr &^ (c.cfg.LineBytes - 1)
	si := c.setOf(line)
	set := c.sets[si]
	for i, tag := range set {
		if tag == line {
			c.sets[si] = append(set[:i], set[i+1:]...)
			return true
		}
	}
	return false
}

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the counters but keeps cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush empties the cache and clears the counters.
func (c *Cache) Flush() {
	clear(c.sets)
	c.stats = Stats{}
}

// Lines returns the number of resident lines, for tests and diagnostics.
func (c *Cache) Lines() int {
	n := 0
	for _, s := range c.sets {
		n += len(s)
	}
	return n
}

// Package addrmap implements the physical address mappings of the paper's
// target platform (Figure 2) and the page-coloring allocator that lets the
// compiler infer on-chip data locations from virtual addresses.
//
// Two mappings are modeled:
//
//   - cache-line-granularity interleaving of addresses over the distributed
//     L2 banks (SNUCA home banks), and
//   - page-granularity interleaving of addresses over memory channels.
//
// The paper presents both as bit-field extractions, which is the power-of-two
// special case of modular interleaving. We implement general modular
// interleaving so that meshes with non-power-of-two node counts (e.g. KNL's
// 36 tiles) are supported; for power-of-two counts the two formulations are
// identical.
package addrmap

import "fmt"

// Layout describes how physical addresses map onto the shared hardware
// components.
type Layout struct {
	// LineBytes is the cache line size; L2 home banks interleave at this
	// granularity.
	LineBytes uint64
	// PageBytes is the OS page size; memory channels interleave at this
	// granularity.
	PageBytes uint64
	// L2Banks is the number of last-level cache banks (one per mesh node).
	L2Banks int
	// Channels is the number of memory channels (one per memory controller).
	Channels int
}

// DefaultLayout returns the layout used throughout the evaluation: 64 B
// lines, 4 KiB pages, one L2 bank per node of a 6x6 mesh, and the Figure 2b
// memory organization's 4 channels.
func DefaultLayout() Layout {
	return Layout{
		LineBytes: 64,
		PageBytes: 4096,
		L2Banks:   36,
		Channels:  4,
	}
}

// Validate checks the layout for internal consistency.
func (l Layout) Validate() error {
	if l.LineBytes == 0 || l.PageBytes == 0 {
		return fmt.Errorf("addrmap: line/page size must be nonzero")
	}
	if l.PageBytes%l.LineBytes != 0 {
		return fmt.Errorf("addrmap: page size %d not a multiple of line size %d", l.PageBytes, l.LineBytes)
	}
	if l.L2Banks <= 0 || l.Channels <= 0 {
		return fmt.Errorf("addrmap: component counts must be positive")
	}
	return nil
}

// LinesPerPage returns the number of cache lines in one page.
func (l Layout) LinesPerPage() uint64 { return l.PageBytes / l.LineBytes }

// LineIndex returns the global cache-line number of physical address pa.
func (l Layout) LineIndex(pa uint64) uint64 { return pa / l.LineBytes }

// PageIndex returns the physical page number of pa.
func (l Layout) PageIndex(pa uint64) uint64 { return pa / l.PageBytes }

// LineAddr returns the address of the first byte of pa's cache line.
func (l Layout) LineAddr(pa uint64) uint64 { return pa &^ (l.LineBytes - 1) }

// L2Bank returns the SNUCA home bank of physical address pa
// (cache-line-granularity interleaving).
func (l Layout) L2Bank(pa uint64) int {
	return int(l.LineIndex(pa) % uint64(l.L2Banks))
}

// Channel returns the memory channel of pa (page-granularity interleaving,
// the "channel id" bits of Figure 2b).
func (l Layout) Channel(pa uint64) int {
	return int(l.PageIndex(pa) % uint64(l.Channels))
}

// bankPagePeriod returns the number of consecutive pages after which the
// page-to-L2-bank interleaving pattern repeats. Preserving the page number
// modulo this period across VA->PA translation preserves every line's home
// bank.
func (l Layout) bankPagePeriod() uint64 {
	lp := l.LinesPerPage()
	return lcm(uint64(l.L2Banks), lp) / lp
}

// ColorModulus returns the page-number modulus that the page-coloring
// allocator must preserve so that both the L2 home bank of every line in a
// page and the page's memory channel are identical for VA and PA.
func (l Layout) ColorModulus() uint64 {
	return lcm(l.bankPagePeriod(), uint64(l.Channels))
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd(a, b) * b
}

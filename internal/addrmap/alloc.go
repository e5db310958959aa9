package addrmap

// Allocator performs VA-to-PA translation with page coloring: the physical
// page chosen for a virtual page always has the same color (its page number
// modulo Layout.ColorModulus), so the L2 home bank of every cache line and
// the memory channel of every page can be inferred from the virtual address
// alone. This models the modified OS page-allocation API described in
// Section 4.1 of the paper.
type Allocator struct {
	layout Layout
	// pageTable records established VA page -> PA page translations.
	pageTable map[uint64]uint64
	// nextFree tracks, per color, the next unassigned physical page of that
	// color (expressed as the k-th page of the color class).
	nextFree map[uint64]uint64
}

// NewAllocator creates an allocator for the given layout. The layout must be
// valid.
func NewAllocator(l Layout) (*Allocator, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &Allocator{
		layout:    l,
		pageTable: make(map[uint64]uint64),
		nextFree:  make(map[uint64]uint64),
	}, nil
}

// Translate returns the physical address for virtual address va, allocating
// a physical page with matching color on first touch. Translations are
// stable: repeated calls with addresses on the same virtual page return
// addresses on the same physical page.
func (a *Allocator) Translate(va uint64) uint64 {
	vp := a.layout.PageIndex(va)
	pp, ok := a.pageTable[vp]
	if !ok {
		color := vp % a.layout.ColorModulus()
		k := a.nextFree[color]
		a.nextFree[color] = k + 1
		// The k-th physical page of this color class.
		pp = k*a.layout.ColorModulus() + color
		a.pageTable[vp] = pp
	}
	return pp*a.layout.PageBytes + va%a.layout.PageBytes
}

// Pages returns a copy of the established VA-page -> PA-page translations.
// Translation is first-touch-order dependent, so independent passes (the
// schedule verifier in particular) must replay the emitter's page table
// rather than allocate their own; this snapshot is what they replay.
func (a *Allocator) Pages() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(a.pageTable))
	for vp, pp := range a.pageTable {
		out[vp] = pp
	}
	return out
}

package core

import (
	"fmt"

	"dmacp/internal/addrmap"
	"dmacp/internal/cache"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
)

// LineLoc is the result of data location detection for one reference
// instance (Section 4.1): the cache line it touches and where the compiler
// believes that line lives on the mesh.
type LineLoc struct {
	// Line is the line-aligned virtual address of the datum.
	Line uint64
	// Home is the node holding the SNUCA home L2 bank.
	Home mesh.NodeID
	// MC is the memory controller that would service an L2 miss.
	MC mesh.NodeID
	// PredictedHit is the compiler's belief about L2 residency; when false
	// the effective location becomes the MC.
	PredictedHit bool
	// ActualHit is the modeled ground truth (what a simulation of the L2
	// observes); the ideal-analysis configuration uses it directly.
	ActualHit bool
}

// Node returns the location the partitioner should treat as holding the
// datum: the home bank on a predicted hit, the MC otherwise.
func (l LineLoc) Node() mesh.NodeID {
	if l.PredictedHit {
		return l.Home
	}
	return l.MC
}

// Locator performs data location detection: it maps reference instances to
// lines via the page-colored address mapping, determines SNUCA home banks
// and servicing MCs under the configured cluster mode, models actual L2
// residency with per-bank caches, and consults the hit/miss predictor.
type Locator struct {
	opts  *Options
	alloc *addrmap.Allocator
	l2    *cache.Cache // residency model, one cache per bank/node
	// quadBanks[q] lists the nodes of quadrant q, for SNC-4 home mapping.
	quadBanks [4][]mesh.NodeID
	// firsts records, per located line, the first reference instance that
	// touched it; LineLabels names the line after it ("B[24]").
	firsts map[uint64]firstTouch
	// statics caches the iteration-independent view of each reference the
	// locator has seen: its array and its compiled subscript. The body's
	// *Ref nodes are shared across all iterations, so keying by pointer
	// turns the per-instance subscript analysis (AnalyzeAffine and its
	// coefficient maps, on an indirect reference's inner subscripts as well)
	// into a single map probe.
	statics map[*ir.Ref]refStatic

	refs, analyzable int64 // Table 1 accounting
}

// refStatic is the cached compile-time view of one reference.
type refStatic struct {
	arr *ir.Array
	sub ir.Subscript
}

// firstTouch is the reference instance that first touched a line: the
// reference and the element index it resolved to.
type firstTouch struct {
	ref *ir.Ref
	idx int
}

// NewLocator creates a locator for the given options. The allocator models
// the page-coloring OS support, so HomeBankVA(va) is exact.
func NewLocator(opts *Options) (*Locator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	alloc, err := addrmap.NewAllocator(opts.Layout)
	if err != nil {
		return nil, err
	}
	loc := &Locator{
		opts:    opts,
		alloc:   alloc,
		firsts:  make(map[uint64]firstTouch),
		statics: make(map[*ir.Ref]refStatic),
	}
	loc.l2, err = cache.New(cache.Config{
		SizeBytes: opts.L2BankBytes,
		LineBytes: opts.Layout.LineBytes,
		Ways:      opts.L2Ways,
	}, opts.Mesh.Nodes())
	if err != nil {
		return nil, err
	}
	for n := mesh.NodeID(0); int(n) < opts.Mesh.Nodes(); n++ {
		q := opts.Mesh.Quadrant(n)
		loc.quadBanks[q] = append(loc.quadBanks[q], n)
	}
	return loc, nil
}

// homeNode maps a line's virtual address to the node holding its home L2
// bank. In all-to-all and quadrant modes lines interleave over every bank;
// in SNC-4 mode each page is pinned to one quadrant and its lines interleave
// over that quadrant's banks only.
func (loc *Locator) homeNode(va uint64) mesh.NodeID {
	l := loc.opts.Layout
	if loc.opts.Mode == mesh.SNC4 {
		q := int(l.PageIndex(va) % 4)
		banks := loc.quadBanks[q]
		return banks[l.LineIndex(va)%uint64(len(banks))]
	}
	return mesh.NodeID(l.L2Bank(va))
}

// Locate performs location detection for the line containing virtual address
// va, advancing the L2 residency model and scoring the predictor. Successive
// calls must follow the program's reference order, since residency is
// history-dependent.
func (loc *Locator) Locate(va uint64) LineLoc {
	l := loc.opts.Layout
	line := l.LineAddr(va)
	home := loc.homeNode(line)
	mc := loc.opts.Mesh.MCFor(home, l.Channel(line), loc.opts.Mode)
	if override, ok := loc.opts.MCOverride[l.PageIndex(line)]; ok {
		mc = override
	}

	actual := loc.l2.Access(int(home), line)
	predicted := actual
	if !loc.opts.IdealAnalysis {
		if p := loc.opts.Predictor; p != nil {
			predicted = p.Predict(line)
			p.Observe(line, actual)
		} else {
			predicted = true // no predictor: assume on-chip
		}
	}
	return LineLoc{Line: line, Home: home, MC: mc, PredictedHit: predicted, ActualHit: actual}
}

// LocateRef resolves a reference instance to its line location. The store
// resolves indirect subscripts (nil store is allowed for analyzable refs);
// the second result is false when the reference cannot be resolved — for
// non-ideal runs without runtime information, unresolvable references are
// conservatively placed at the requesting statement's store node by the
// caller.
func (loc *Locator) LocateRef(prog *ir.Program, ref *ir.Ref, env map[string]int, store *ir.Store) (LineLoc, bool) {
	st, ok := loc.statics[ref]
	if !ok {
		st = refStatic{arr: prog.Array(ref.Array), sub: prog.CompileSubscript(ref)}
		loc.statics[ref] = st
	}
	loc.refs++
	if st.sub.Analyzable() {
		loc.analyzable++
	}
	idx, err := st.sub.Index(env, store)
	if err != nil {
		return LineLoc{}, false
	}
	if st.arr == nil {
		return LineLoc{}, false
	}
	ll := loc.Locate(loc.alloc.Translate(st.arr.AddrOfIndex(idx)))
	if _, seen := loc.firsts[ll.Line]; !seen {
		loc.firsts[ll.Line] = firstTouch{ref, idx}
	}
	return ll, true
}

// LineLabels returns the human-readable name of each line located through
// LocateRef, keyed by line address: the first reference instance that
// touched it, as "B[24]". Each call formats a new map.
func (loc *Locator) LineLabels() map[uint64]string {
	labels := make(map[uint64]string, len(loc.firsts))
	for line, f := range loc.firsts {
		labels[line] = fmt.Sprintf("%s[%d]", f.ref.Array, f.idx)
	}
	return labels
}

// AnalyzableFraction returns the fraction of located references whose
// subscripts were compile-time analyzable (Table 1).
func (loc *Locator) AnalyzableFraction() float64 {
	if loc.refs == 0 {
		return 0
	}
	return float64(loc.analyzable) / float64(loc.refs)
}

// Allocator exposes the underlying page-colored allocator (examples print
// translations from it).
func (loc *Locator) Allocator() *addrmap.Allocator { return loc.alloc }

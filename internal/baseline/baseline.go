// Package baseline implements the computation placement strategies the
// paper compares against:
//
//   - the "default" strategy (Section 6.1): iteration-granularity placement,
//     highly optimized for last-level-cache locality using profile data —
//     each chunk of iterations runs on the core that minimizes the total
//     distance to the L2 banks and memory controllers it touches;
//   - two weaker prior-work-style baselines in the spirit of Lu et al. [49]
//     (layout-driven block distribution) and Ding et al. [17] (memory
//     -controller-affine mapping), used for the 8.3%/12.6% comparison;
//   - the profile-based data-to-MC page mapping of Section 6.5 (Figure 23).
//
// All strategies keep iterations whole (no subcomputation splitting) and
// emit the same task format the optimized partitioner does, so the simulator
// treats both identically.
package baseline

import (
	"fmt"
	"slices"

	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
)

// Strategy selects the placement policy.
type Strategy int

// The implemented placement strategies.
const (
	// ProfiledLocality is the paper's default: profile-guided, LLC-locality
	// optimized chunk placement.
	ProfiledLocality Strategy = iota
	// BlockDistribution emulates layout-driven schemes (Lu et al. [49]):
	// contiguous iteration blocks dealt to cores in row-major order.
	BlockDistribution
	// MCAffine emulates MC-locality schemes (Ding et al. [17]): each chunk
	// runs on the core nearest the memory controller it uses most.
	MCAffine
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case ProfiledLocality:
		return "profiled-locality"
	case BlockDistribution:
		return "block-distribution"
	case MCAffine:
		return "mc-affine"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Result is the default execution's plan and statistics, shaped like the
// partitioner's output so experiments can compare them directly.
type Result struct {
	// Schedule is the iteration-granularity task DAG.
	Schedule *core.Schedule
	// TotalMovement is the default data movement (Equation 1) summed over
	// statement instances; Avg/Max are per-instance.
	TotalMovement int64
	AvgMovement   float64
	MaxMovement   int
	// L1HitRate is the default execution's modeled L1 hit rate.
	L1HitRate float64
	// ChunkOf records the core assigned to each iteration chunk.
	ChunkOf []mesh.NodeID
	// Translations is the VA-page -> PA-page table the emission locator's
	// allocator established, for the schedule verifier (translation is
	// first-touch-order dependent and cannot be replayed independently).
	Translations map[uint64]uint64
}

// chunksPerCore controls placement granularity: the iteration space splits into
// about this many chunks per core.
const chunksPerCore = 4

// Place builds the default (iteration-granularity) execution of a nest under
// the chosen strategy. The options carry the platform description; the
// predictor and reuse settings are ignored (the default strategy fetches
// everything to the assigned core).
func Place(prog *ir.Program, nest *ir.Nest, store *ir.Store, opts core.Options, strat Strategy) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(nest.Body) == 0 {
		return nil, fmt.Errorf("baseline: nest %q has an empty body", nest.Name)
	}
	if opts.Predictor != nil {
		// Use a private clone so the caller's predictor state is untouched
		// (the optimized pipeline does the same once per nest). The
		// profiling and emission passes below both train this one clone.
		opts.Predictor = opts.Predictor.Fresh()
	}

	iters := nest.Iterations()
	nodes := opts.Mesh.Nodes()
	chunkSize := iters / (nodes * chunksPerCore)
	if chunkSize < 1 {
		chunkSize = 1
	}
	numChunks := (iters + chunkSize - 1) / chunkSize

	// Profiling pass: per chunk, tally what the strategy's objective reads —
	// the column and row histograms of the located nodes (ProfiledLocality)
	// or the MC usage (MCAffine). The pass runs for every strategy because it
	// trains the predictor clone the emission pass reuses.
	profLoc, err := core.NewLocator(&opts)
	if err != nil {
		return nil, err
	}
	cols, rows := opts.Mesh.Cols(), opts.Mesh.Rows()
	var colHist, rowHist []int // chunk c's histograms at [c*cols:(c+1)*cols] and [c*rows:(c+1)*rows]
	var mcCount []map[mesh.NodeID]int
	switch strat {
	case BlockDistribution: // reads no profile
	case MCAffine:
		mcCount = make([]map[mesh.NodeID]int, numChunks)
		for c := range mcCount {
			mcCount[c] = make(map[mesh.NodeID]int)
		}
	default: // ProfiledLocality
		colHist = make([]int, numChunks*cols)
		rowHist = make([]int, numChunks*rows)
	}
	// The statements' reference lists depend only on the statement, so they
	// are built once, not once per instance.
	allRefs := make([][]*ir.Ref, len(nest.Body))
	inputs := make([][]*ir.Ref, len(nest.Body))
	for si, stmt := range nest.Body {
		allRefs[si], inputs[si] = stmt.AllRefs(), stmt.Inputs()
	}
	var env map[string]int
	for it := 0; it < iters; it++ {
		env = nest.IterationEnvInto(env, it)
		c := it / chunkSize
		for _, refs := range allRefs {
			for _, ref := range refs {
				ll, ok := profLoc.LocateRef(prog, ref, env, store)
				if !ok {
					continue
				}
				if mcCount != nil {
					mcCount[c][ll.MC]++
				}
				if colHist != nil {
					at := opts.Mesh.CoordOf(ll.Node())
					colHist[c*cols+at.X]++
					rowHist[c*rows+at.Y]++
				}
			}
		}
	}

	// Chunk-to-core assignment: among cores with remaining capacity, pick the
	// one optimizing the strategy's objective (profile-guided).
	chunkOf := make([]mesh.NodeID, numChunks)
	perCoreCap := (numChunks + nodes - 1) / nodes
	coreLoad := make([]int, nodes)
	colCost, rowCost := make([]int, cols), make([]int, rows)
	for c := range chunkOf {
		switch strat {
		case BlockDistribution:
			chunkOf[c] = mesh.NodeID(c % nodes)
		case MCAffine:
			topMC := bestMCCore(opts.Mesh, mcCount[c])
			chunkOf[c] = bestAvailable(opts.Mesh, coreLoad, perCoreCap, func(n mesh.NodeID) int {
				return opts.Mesh.Distance(n, topMC)
			})
		default: // ProfiledLocality
			// Manhattan distance separates by axis, so the chunk's total
			// distance from core (x, y) to its located nodes is exactly
			// colCost[x] + rowCost[y]: O(cols + rows) per chunk, then O(1)
			// per core scanned, instead of one Distance per reference per
			// core.
			axisCost(colHist[c*cols:(c+1)*cols], colCost)
			axisCost(rowHist[c*rows:(c+1)*rows], rowCost)
			chunkOf[c] = bestSeparable(coreLoad, perCoreCap, colCost, rowCost)
		}
		coreLoad[chunkOf[c]]++
	}

	// Emission pass: one task per statement instance on the chunk's core.
	// The locator is fresh, so L2 residency and page translation start cold
	// as in the optimized pass; the predictor is not: both passes share the
	// one opts.Predictor clone made above, so emission consults a predictor
	// the profiling pass has already trained.
	emitLoc, err := core.NewLocator(&opts)
	if err != nil {
		return nil, err
	}
	l1 := core.ShadowL1s(&opts)
	sched := &core.Schedule{Instances: iters * len(nest.Body)}
	res := &Result{Schedule: sched, ChunkOf: chunkOf}
	// resid is the write-invalidate residency of the emitted lines, by the
	// IDs lineIDs gives them: the flow, output and anti orderings read it,
	// and the IDs travel with the schedule.
	var resid core.Residency
	var lineIDs core.LineIDs
	addWait := func(t *core.Task, producer int) {
		if slices.Contains(t.WaitFor, producer) {
			return
		}
		t.WaitFor = append(t.WaitFor, producer)
		t.WaitHops = append(t.WaitHops, opts.Mesh.Distance(sched.Tasks[producer].Node, t.Node))
		sched.SyncsBefore++
	}

	for it := 0; it < iters; it++ {
		env = nest.IterationEnvInto(env, it)
		node := chunkOf[it/chunkSize]
		for si, stmt := range nest.Body {
			storeLL, ok := emitLoc.LocateRef(prog, stmt.LHS, env, store)
			if !ok {
				arr := prog.Array(stmt.LHS.Array)
				if arr == nil {
					return nil, fmt.Errorf("baseline: statement %q writes undeclared array", stmt)
				}
				storeLL = emitLoc.Locate(emitLoc.Allocator().Translate(arr.Base))
			}
			t := &core.Task{
				ID:     len(sched.Tasks),
				Node:   node,
				Ops:    float64(stmt.OpCount(core.DivWeight)),
				IsRoot: true,
				Stmt:   si,
				Iter:   it,
			}
			movement := 0
			for _, ref := range inputs[si] {
				ll, ok := emitLoc.LocateRef(prog, ref, env, store)
				if !ok {
					ll = storeLL
				}
				id := lineIDs.Intern(ll.Line)
				hit := l1.Access(int(node), ll.Line)
				t.Fetches = append(t.Fetches, core.Fetch{
					From:   ll.Node(),
					Line:   ll.Line,
					L2Miss: !ll.ActualHit && !hit,
					L1Hit:  hit,
					LineID: id,
				})
				if !hit {
					movement += opts.Mesh.Distance(node, ll.Node())
				}
				// Flow ordering on the input line; addWait dedupes the
				// producer (several inputs of one statement often share a
				// writer), so SyncsBefore counts distinct arcs — the same
				// hygiene the optimized emitter applies via DedupeWaits. The
				// read is recorded right away: it can only replace a reader
				// on this core, which the output ordering below skips.
				if w, okw := resid.Writer(id); okw {
					addWait(t, int(w.Task))
				}
				resid.Read(id, node, t.ID)
			}
			// The result is stored at the output's home node: the writing
			// core issues a write-allocate (RFO) fetch of the output line
			// unless it already owns it. The optimized schedule's root task
			// performs the store at the home node itself, which is exactly
			// the near-data advantage being measured.
			sid := lineIDs.Intern(storeLL.Line)
			storeHit := l1.Contains(int(node), storeLL.Line)
			t.Fetches = append(t.Fetches, core.Fetch{
				From:   storeLL.Node(),
				Line:   storeLL.Line,
				L2Miss: !storeLL.ActualHit && !storeHit,
				L1Hit:  storeHit,
				LineID: sid,
			})
			movement += opts.Mesh.Distance(node, storeLL.Home)
			l1.Access(int(node), storeLL.Line)
			t.ResultLine, t.ResultID = storeLL.Line, sid
			// Output ordering: the RFO and store of the output line must
			// follow its previous writer (WAW) and every read issued from
			// another core since that write (WAR). Same-core predecessors are
			// ordered by the per-core program order the simulator preserves;
			// readers come in ascending node order, which keeps emission
			// deterministic.
			//
			// Write-invalidate: the store also kills every remote shadow-L1
			// copy of the output line, so a later read on another core
			// refetches instead of claiming a hit on a stale copy (which the
			// verifier rejects as a Violation). Only the cores ordered here
			// can hold a copy: every shadow-L1 insert is either a read,
			// recorded until the line's next write, or the previous writer's
			// store, whose core kept its copy.
			if w, okw := resid.Writer(sid); okw && w.Node != node {
				addWait(t, int(w.Task))
			}
			for _, r := range resid.Readers(sid) {
				if r.Node != node {
					addWait(t, int(r.Task))
				}
			}
			for _, n := range resid.Write(sid, node, t.ID) {
				l1.Invalidate(int(n), storeLL.Line)
			}
			sched.Tasks = append(sched.Tasks, t)

			res.TotalMovement += int64(movement)
			if movement > res.MaxMovement {
				res.MaxMovement = movement
			}
		}
	}
	// Transitive sync reduction, same as the optimized emitter: addWait
	// already dedupes producers inline, and ReduceSyncs removes every arc
	// the remaining arc structure implies (the verifier's sync-sufficiency
	// pass cross-validates that zero redundant arcs remain). SyncsAfter is
	// exactly the number of arcs the simulator charges.
	sched.Lines = lineIDs.Len()
	removed := core.ReduceSyncs(sched.Tasks)
	sched.SyncsAfter = sched.SyncsBefore - removed
	if sched.SyncsAfter < 0 {
		sched.SyncsAfter = 0
	}

	if sched.Instances > 0 {
		res.AvgMovement = float64(res.TotalMovement) / float64(sched.Instances)
	}
	res.L1HitRate = l1.Stats().HitRate()
	res.Translations = emitLoc.Allocator().Pages()
	return res, nil
}

// bestAvailable returns the core with remaining capacity minimizing the
// objective (ties to the lower node id).
func bestAvailable(m *mesh.Mesh, load []int, capPerCore int, objective func(mesh.NodeID) int) mesh.NodeID {
	best := mesh.InvalidNode
	bestVal := 1 << 62
	for n := mesh.NodeID(0); int(n) < m.Nodes(); n++ {
		if load[n] >= capPerCore {
			continue
		}
		if v := objective(n); v < bestVal {
			best, bestVal = n, v
		}
	}
	if best == mesh.InvalidNode {
		return 0
	}
	return best
}

// bestSeparable returns the core with remaining capacity minimizing
// colCost[x] + rowCost[y] (ties to the lower node id), or 0 when every core
// is full. Cores are node IDs y*cols + x, cols = len(colCost). The best core
// of the cheapest row bounds the rest: a row whose cost plus the cheapest
// column's exceeds it cannot hold a better core, so it is not scanned.
func bestSeparable(load []int, capPerCore int, colCost, rowCost []int) mesh.NodeID {
	cols, minCol := len(colCost), slices.Min(colCost)
	y0 := slices.Index(rowCost, slices.Min(rowCost))
	best, bestVal := scanRow(load, capPerCore, colCost, rowCost[y0], y0*cols, mesh.InvalidNode, 1<<62)
	for y, r := range rowCost {
		if y != y0 && r+minCol <= bestVal {
			best, bestVal = scanRow(load, capPerCore, colCost, r, y*cols, best, bestVal)
		}
	}
	if best == mesh.InvalidNode {
		return 0
	}
	return best
}

// scanRow returns the better of (best, bestVal) and the row's cores with
// remaining capacity, node base+x scoring rowCost+colCost[x]. Rows are
// scanned out of node order (the cheapest first), so an equal score wins
// only on a lower node id.
func scanRow(load []int, capPerCore int, colCost []int, rowCost, base int, best mesh.NodeID, bestVal int) (mesh.NodeID, int) {
	for x, cc := range colCost {
		n := mesh.NodeID(base + x)
		if load[n] >= capPerCore {
			continue
		}
		if v := rowCost + cc; v < bestVal || v == bestVal && n < best {
			best, bestVal = n, v
		}
	}
	return best, bestVal
}

// axisCost sets cost[x] to the total distance from coordinate x to every
// point of the one-axis histogram hist (len(cost) == len(hist)), with
// running sums: moving from x to x+1 brings every point at or left of x one
// step farther and every point right of it one step nearer.
func axisCost(hist, cost []int) {
	total, left, sum := 0, 0, 0
	for x, h := range hist {
		total += h
		sum += h * x // the distance of every point from coordinate 0
	}
	for x, h := range hist {
		cost[x] = sum
		left += h
		sum += left - (total - left)
	}
}

// bestMCCore returns the most used memory controller of a chunk.
func bestMCCore(m *mesh.Mesh, mcCount map[mesh.NodeID]int) mesh.NodeID {
	var topMC mesh.NodeID
	top := -1
	for _, mc := range m.MemoryControllers() {
		if c := mcCount[mc]; c > top {
			topMC, top = mc, c
		}
	}
	return topMC
}

// BuildMCMap computes the profile-based data-to-MC page mapping of Section
// 6.5: each page is assigned to the memory controller preferred by the
// nearest-MC vote of the cores that access it most. It returns a page-number
// to MC-node map suitable for core.Options.MCOverride.
func BuildMCMap(prog *ir.Program, nest *ir.Nest, store *ir.Store, opts core.Options, placement *Result) (map[uint64]mesh.NodeID, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Predictor != nil {
		opts.Predictor = opts.Predictor.Fresh()
	}
	loc, err := core.NewLocator(&opts)
	if err != nil {
		return nil, err
	}
	iters := nest.Iterations()
	chunkSize := iters / (opts.Mesh.Nodes() * chunksPerCore)
	if chunkSize < 1 {
		chunkSize = 1
	}
	// votes[page][mc] accumulates accesses weighted by proximity of the
	// accessing core.
	votes := make(map[uint64]map[mesh.NodeID]int)
	allRefs := make([][]*ir.Ref, len(nest.Body))
	for si, stmt := range nest.Body {
		allRefs[si] = stmt.AllRefs()
	}
	var env map[string]int
	for it := 0; it < iters; it++ {
		env = nest.IterationEnvInto(env, it)
		var node mesh.NodeID
		if placement != nil && len(placement.ChunkOf) > 0 {
			node = placement.ChunkOf[(it/chunkSize)%len(placement.ChunkOf)]
		}
		for _, refs := range allRefs {
			for _, ref := range refs {
				ll, ok := loc.LocateRef(prog, ref, env, store)
				if !ok {
					continue
				}
				page := ll.Line / opts.Layout.PageBytes
				if votes[page] == nil {
					votes[page] = make(map[mesh.NodeID]int)
				}
				votes[page][opts.Mesh.NearestMC(node)]++
			}
		}
	}
	// Remap only pages with a clear winner; pages accessed evenly from many
	// cores (the paper's "middle of the grid" case) keep the default
	// interleaving — Section 6.5 notes the scheme only helps when used
	// selectively, and remapping ambiguous pages merely concentrates memory
	// traffic on one controller.
	const winnerShare = 0.6
	out := make(map[uint64]mesh.NodeID, len(votes))
	for page, v := range votes {
		var bestMC mesh.NodeID
		best, total := -1, 0
		for _, mc := range opts.Mesh.MemoryControllers() {
			c := v[mc]
			total += c
			if c > best {
				bestMC, best = mc, c
			}
		}
		if total > 0 && float64(best) >= winnerShare*float64(total) {
			out[page] = bestMC
		}
	}
	return out, nil
}

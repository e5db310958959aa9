package core

import (
	"fmt"

	"dmacp/internal/cache"
	"dmacp/internal/fusion"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/par"
)

// Stats aggregates the per-statement metrics of one partitioned nest.
type Stats struct {
	// Instances is the number of statement instances scheduled.
	Instances int
	// TotalMovement is the optimized data movement (links traversed) summed
	// over all statement instances, including load-balancing penalties.
	TotalMovement int64
	// AvgMovement and MaxMovement are per-statement-instance figures
	// (Figure 13 reports reductions of these against the default).
	AvgMovement float64
	MaxMovement int
	// AvgParallelism and MaxParallelism are the degree-of-parallelism
	// figures of Figure 14.
	AvgParallelism float64
	MaxParallelism int
	// SyncsPerStatement is the post-reduction synchronization count per
	// statement instance (Figure 15).
	SyncsPerStatement float64
	// SubcomputationsPerStatement is the average number of subcomputations a
	// statement is split into.
	SubcomputationsPerStatement float64
	// ReuseHits counts operands satisfied from a reused L1 copy.
	ReuseHits int64
	// L1HitRate is the hit rate of the per-node L1 models during the
	// optimized execution (Figure 16/21).
	L1HitRate float64
	// Imbalance is max/mean node load after load balancing.
	Imbalance float64
}

// Result is the outcome of partitioning one loop nest.
type Result struct {
	Nest *ir.Nest
	// FusedNest is the coarsened nest the schedule was actually emitted
	// over when Options.Fuse merged producer→consumer statements (nil when
	// fusion was off or found no legal candidate). Task.Stmt indices refer
	// to its body; Fusion expands them back to Nest's statement indices.
	FusedNest *ir.Nest
	// Fusion maps coarsened statement indices to the original ones; nil
	// when FusedNest is nil.
	Fusion *fusion.FusionMap
	// WindowSize is the statement window the adaptive search selected (or
	// the fixed size when Options.FixedWindow was set).
	WindowSize int
	// MovementBySize and L1HitBySize record the window-size exploration
	// (Figures 20/21): total movement and model-L1 hit rate per trial size.
	MovementBySize map[int]int64
	L1HitBySize    map[int]float64
	// Schedule is the emitted task DAG for the chosen window size.
	Schedule *Schedule
	// Stats are the chosen pass's aggregates.
	Stats Stats
	// AnalyzableFraction is the Table 1 figure observed during location
	// detection.
	AnalyzableFraction float64
	// PredictorAccuracy is the Table 2 figure (0 when no predictor is set).
	PredictorAccuracy float64
	// OffloadMix tallies re-mapped (non-root) subcomputation ops by class
	// (Table 3).
	OffloadMix map[ir.OpClass]int
	// UsedInspector reports whether may-dependences forced an
	// inspector–executor split of the timing loop.
	UsedInspector bool
	// LineLabels names each cache line after the first reference that
	// touched it ("B[24]"); code generation renders schedules with them.
	LineLabels map[uint64]string
	// Translations is the VA-page -> PA-page table the location pass's
	// page-colored allocator established. Address translation is
	// first-touch-order dependent, so any independent pass that needs the
	// schedule's line addresses (the verifier) must replay this table.
	Translations map[uint64]uint64
}

// ScheduleNest returns the nest whose body the schedule's Task.Stmt indices
// refer to: the fused nest when the coarsening pre-pass merged statements,
// the original nest otherwise. Every consumer that interprets Stmt/Iter
// against a statement body — the verifier, the code generator — must use
// it; the unfused Nest stays the reference semantics.
func (r *Result) ScheduleNest() *ir.Nest {
	if r.FusedNest != nil {
		return r.FusedNest
	}
	return r.Nest
}

// Partition runs the full NDP-aware partitioning pipeline of Algorithm 1 on
// one loop nest: location detection, per-window-size trial scheduling,
// window-size selection by minimum data movement, and final task emission
// with load balancing and synchronization reduction.
//
// store carries the runtime array contents; it is required when the body has
// indirect accesses (the inspector resolves them through it) and may be nil
// otherwise.
func Partition(prog *ir.Program, nest *ir.Nest, store *ir.Store, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(nest.Body) == 0 {
		return nil, fmt.Errorf("core: nest %q has an empty body", nest.Name)
	}

	// Coarsening pre-pass: merge single-consumer producers into their
	// consumers before anything looks at the body. The sweep, the emitted
	// schedule and the verifier all operate on the fused nest; the original
	// stays on Result.Nest as the reference semantics.
	schedNest := nest
	var fmap *fusion.FusionMap
	if opts.Fuse {
		fr := fusion.Coarsen(prog, nest, fusion.Limits{
			L1Bytes:   opts.L1Bytes,
			LineBytes: opts.Layout.LineBytes,
		})
		if fr.Merged > 0 {
			schedNest = fr.Nest
			fmap = fr.Map
		}
	}

	usedInspector := false
	if ir.HasMayDeps(schedNest.Body) && store != nil {
		// Inspector phase: resolve indirect accesses through runtime values
		// (Section 4.5). The executor below consults the same store, which
		// is exactly what the inspector recorded.
		ins := ir.NewInspector(prog, schedNest)
		if err := ins.Run(store); err != nil {
			return nil, fmt.Errorf("core: inspector: %w", err)
		}
		usedInspector = true
	}

	res := &Result{
		Nest:           nest,
		Fusion:         fmap,
		MovementBySize: make(map[int]int64),
		L1HitBySize:    make(map[int]float64),
		UsedInspector:  usedInspector,
	}
	if fmap != nil {
		res.FusedNest = schedNest
	}
	// Location detection depends only on reference order, never on the
	// window, so it runs once, serially, before the sweep.
	tr, err := locateNest(prog, schedNest, store, &opts)
	if err != nil {
		return nil, err
	}
	// Window-size trials are independent: they share the location trace
	// read-only, and each pass owns only its shadow L1s and decision state.
	// A trial only scores its window, so the sweep's passes make decisions
	// without materializing tasks; they fan out on the worker pool, land in
	// indexed slots and are folded in window order, so the selected window —
	// first minimum in window order — matches the serial sweep exactly. The
	// winner is then re-run once with emission on the calling goroutine;
	// emission never feeds back into a decision, so its Stats equal the
	// trial's score. A FixedWindow run has nothing to select and runs its
	// one emitting pass directly.
	//
	// Every trial plans most instances exactly as every other trial does:
	// an instance none of whose leaves has a reuse candidate gets its
	// reuse-free plan, a pure function of the trace. A sweep builds those
	// plans once, before the fan-out, and its passes read them.
	sizes := opts.windowSizes()
	if len(sizes) > 1 {
		if tr.plans, err = buildPlans(tr, opts.Mesh.DistanceTable(), opts.Jobs); err != nil {
			return nil, err
		}
	}
	prs := make([]*passResult, len(sizes))
	if len(sizes) == 1 {
		prs[0] = runPass(tr, &opts, sizes[0], true)
	} else if err := par.ForEach(opts.Jobs, len(sizes), func(i int) {
		prs[i] = runPass(tr, &opts, sizes[i], false)
	}); err != nil {
		return nil, err
	}
	best := prs[0]
	for i, pr := range prs {
		res.MovementBySize[sizes[i]] = pr.stats.TotalMovement
		res.L1HitBySize[sizes[i]] = pr.stats.L1HitRate
		if pr.stats.TotalMovement < best.stats.TotalMovement {
			best = pr
		}
	}
	if best.schedule == nil {
		best = runPass(tr, &opts, best.window, true)
	}

	// Selection reads only TotalMovement, which sync reduction never
	// changes, so only the winning schedule is reduced. Both emitters report
	// deduplicated sync counts: arcs dropped as exact duplicates and arcs
	// eliminated by transitive reduction are subtracted, so SyncsAfter is
	// exactly the number of arcs the simulator charges.
	sched := best.schedule
	deduped := DedupeWaits(sched.Tasks)
	removed := ReduceSyncs(sched.Tasks)
	sched.SyncsAfter = max(sched.SyncsBefore-deduped-removed, 0)
	if sched.Instances > 0 {
		best.stats.SyncsPerStatement = float64(sched.SyncsAfter) / float64(sched.Instances)
	}

	res.WindowSize = best.window
	res.Schedule = sched
	res.Stats = best.stats
	res.AnalyzableFraction = tr.analyzable
	res.PredictorAccuracy = tr.predAccuracy
	res.OffloadMix = best.offloadMix
	res.LineLabels = tr.labels
	res.Translations = tr.translations
	return res, nil
}

// passResult is one scheduling pass: the window's score, plus the schedule
// and its offload tally when the pass emitted (both nil for a trial).
type passResult struct {
	window     int
	schedule   *Schedule
	stats      Stats
	offloadMix map[ir.OpClass]int
}

// stmtPre caches the per-statement invariants of the scheduling loop: the
// nested variable sets, the flattened leaf operands, and the op accounting.
// All fields are read-only once built.
type stmtPre struct {
	set      *ir.SetNode
	leaves   []*ir.Ref
	mix      map[ir.OpClass]int
	ops      int
	opWeight float64
}

// locTrace is the window-invariant half of Algorithm 1: data location
// detection (Section 4.1) for every reference instance of a nest. L2
// residency, prediction, page allocation and line labels depend only on the
// order references are located in, never on the statement window, so one
// serial pass before the sweep serves every trial. Each located line also
// gets a dense ID, which the passes index their per-line state by. A sweep
// adds the instances' reuse-free plans before its fan-out. The passes read
// the trace concurrently and never write it.
type locTrace struct {
	pre []stmtPre
	// stores[k] locates instance k's output, k = iter*len(pre) + stmt.
	stores []LineLoc
	// leaves locates every instance's input leaves in pre[stmt].leaves
	// order; instance (iter, stmt) starts at iter*perIter + prefix[stmt].
	leaves  []LineLoc
	prefix  []int
	perIter int
	// storeIDs and leafIDs, parallel to stores and leaves, hold the dense
	// line IDs: equal lines share an ID, and the IDs are exactly
	// [0, nLines), numbered in the order the lines were first located.
	storeIDs []int32
	leafIDs  []int32
	nLines   int
	// plans holds every instance's reuse-free plan; nil when the nest is
	// partitioned at a single window, whose one pass builds inline.
	plans *planSlab

	analyzable   float64
	predAccuracy float64
	labels       map[uint64]string
	translations map[uint64]uint64
}

// leafOff returns the offset of instance k's first leaf in leaves.
func (tr *locTrace) leafOff(k int) int {
	m := len(tr.pre)
	return k/m*tr.perIter + tr.prefix[k%m]
}

// leavesOf returns the located input leaves of instance k and their line
// IDs.
func (tr *locTrace) leavesOf(k int) ([]LineLoc, []int32) {
	off := tr.leafOff(k)
	end := off + len(tr.pre[k%len(tr.pre)].leaves)
	return tr.leaves[off:end], tr.leafIDs[off:end]
}

// fillOperands rebuilds infos, the plan builder's operand lookup, for
// instance k. reuse[l] lists the l-th leaf's reuse candidates; a nil reuse
// gives every leaf none.
func (tr *locTrace) fillOperands(infos map[*ir.Ref]operandInfo, k int, reuse [][]mesh.NodeID) {
	clear(infos)
	refs := tr.pre[k%len(tr.pre)].leaves
	leaves, ids := tr.leavesOf(k)
	for li, ll := range leaves {
		info := operandInfo{loc: ll, id: ids[li]}
		if reuse != nil && len(reuse[li]) > 0 {
			info.reuseNodes = reuse[li]
		}
		infos[refs[li]] = info
	}
}

// locateNest builds the location trace of a nest: one locator and one
// untrained predictor clone (the caller's predictor stays untouched) visit
// each instance's output, then its input leaves, in program order.
func locateNest(prog *ir.Program, nest *ir.Nest, store *ir.Store, opts *Options) (*locTrace, error) {
	locOpts := *opts
	if opts.Predictor != nil {
		locOpts.Predictor = opts.Predictor.Fresh()
	}
	loc, err := NewLocator(&locOpts)
	if err != nil {
		return nil, err
	}

	// Statement-shape invariants — the nested variable sets, leaf list, op mix
	// and op weight depend only on the statement, not the iteration — are
	// computed once per statement instead of once per instance. The mix map is
	// shared across instances; the emitting pass only reads it.
	body := nest.Body
	m := len(body)
	tr := &locTrace{pre: make([]stmtPre, m), prefix: make([]int, m)}
	for i, stmt := range body {
		set := ir.NestedSets(stmt.RHS)
		p := stmtPre{set: set, leaves: set.Leaves(nil), mix: stmt.OpMix(), ops: stmt.OpCount(1)}
		p.opWeight = 1.0
		if p.ops > 0 {
			p.opWeight = float64(stmt.OpCount(DivWeight)) / float64(p.ops)
		}
		tr.pre[i] = p
		tr.prefix[i] = tr.perIter
		tr.perIter += len(p.leaves)
	}

	iters := nest.Iterations()
	tr.stores = make([]LineLoc, iters*m)
	tr.leaves = make([]LineLoc, iters*tr.perIter)
	tr.storeIDs = make([]int32, len(tr.stores))
	tr.leafIDs = make([]int32, len(tr.leaves))
	var lineIDs LineIDs
	var env map[string]int
	for iter := 0; iter < iters; iter++ {
		env = nest.IterationEnvInto(env, iter)
		for s, stmt := range body {
			storeLoc, ok := loc.LocateRef(prog, stmt.LHS, env, store)
			if !ok {
				// Unresolvable output (indirect without runtime info): anchor
				// at the array's base location.
				arr := prog.Array(stmt.LHS.Array)
				if arr == nil {
					return nil, fmt.Errorf("core: statement %q writes undeclared array", stmt)
				}
				storeLoc = loc.Locate(loc.Allocator().Translate(arr.Base))
			}
			k := iter*m + s
			tr.stores[k] = storeLoc
			tr.storeIDs[k] = lineIDs.Intern(storeLoc.Line)
			leaves, ids := tr.leavesOf(k)
			for li, ref := range tr.pre[s].leaves {
				ll, ok := loc.LocateRef(prog, ref, env, store)
				if !ok {
					// Unresolvable input: conservatively co-locate it with
					// the statement's store.
					ll = LineLoc{Line: storeLoc.Line, Home: storeLoc.Home, MC: storeLoc.MC,
						PredictedHit: true, ActualHit: true}
				}
				leaves[li] = ll
				ids[li] = lineIDs.Intern(ll.Line)
			}
		}
	}

	tr.nLines = lineIDs.Len()
	tr.analyzable = loc.AnalyzableFraction()
	tr.labels = loc.LineLabels()
	tr.translations = loc.Allocator().Pages()
	if locOpts.Predictor != nil {
		tr.predAccuracy = locOpts.Predictor.Accuracy()
	}
	return tr, nil
}

// passScratch owns the reusable working storage of one scheduling pass's
// instance loop. A pass runs on exactly one worker goroutine, so the scratch
// obeys the par ownership rule by construction; every buffer is overwritten
// (never read) at the start of the instance that uses it, and nothing that
// escapes into the emitted schedule aliases it. The builder and an serve
// only the instances that cannot read a shared plan.
type passScratch struct {
	builder planBuilder
	an      PlanAnalysis
	// placed lists the instance's tasks in emission order; lines and ids
	// hold their fetched lines and those lines' IDs, placed[i] owning
	// lines[placed[i].lo:placed[i].hi] and the same span of ids.
	placed []placedTask
	lines  []uint64
	ids    []int32
	// taskOf is the emitting pass's vertex -> task table.
	taskOf []*Task
	// reuseBuf[l] backs the reuse-candidate list of the instance's l-th leaf.
	reuseBuf [][]mesh.NodeID
}

// placedTask is one task of the current instance as placement decided it:
// its ID, its load-balanced node and its range of passScratch.lines. task
// is the materialized Task, nil in a decision-only pass.
type placedTask struct {
	id     int
	node   mesh.NodeID
	lo, hi int
	task   *Task
}

// pass is one scheduling pass over a located nest at a fixed statement
// window. Every pass makes the decisions a window is scored on: placement
// under load balancing, the reuse map, the shadow L1s with their
// write-invalidation, and the Stats. An emitting pass (sched != nil) also
// materializes them: tasks, fetches with their hit flags, flow and WAR
// arcs, and the offload tally. Emission never feeds back into a decision.
// The per-line state is indexed by the trace's dense line IDs.
type pass struct {
	dt *mesh.DistanceTable
	// l1 are the per-node shadow caches that model reuse validity and
	// pollution.
	l1 *cache.Cache
	lt *loadTracker
	// varMap (variable2node): which nodes fetched a line earlier in the
	// current window (Algorithm 1 line 34). varWin[id] is the window,
	// counted from 1, in which varMap[id] was last written, and win is the
	// current one: a list from an earlier window reads as empty, which is
	// how the map is cleared at window boundaries.
	varMap [][]mesh.NodeID
	varWin []int32
	win    int32
	// res is the write-invalidate residency of every line: its last root
	// store and its readers since. Write-invalidation consults its holders;
	// the flow and WAR arcs of an emitting pass, its writer and readers.
	res Residency
	// tasks counts the tasks placed so far: the next task's ID.
	tasks int
	sc    passScratch

	// Emission state, nil in a decision-only pass.
	sched   *Schedule
	offload map[ir.OpClass]int
}

// runPass performs one complete scheduling pass over the located nest with a
// fixed statement-window size, materializing the schedule only when emit is
// set. Sync reduction is left to the caller.
func runPass(tr *locTrace, opts *Options, window int, emit bool) *passResult {
	p := &pass{
		dt:     opts.Mesh.DistanceTable(),
		l1:     ShadowL1s(opts),
		lt:     newLoadTracker(opts.Mesh.Nodes(), opts.LoadThreshold),
		varMap: make([][]mesh.NodeID, tr.nLines),
		varWin: make([]int32, tr.nLines),
	}
	p.res.Reserve(tr.nLines)
	p.sc.builder.dt = p.dt

	m := len(tr.pre)
	instances := len(tr.stores)
	if emit {
		p.sched = &Schedule{Instances: instances, Lines: tr.nLines}
		p.offload = make(map[ir.OpClass]int)
	}

	stats := Stats{Instances: instances}
	var sumPar, sumSub float64

	// infos is keyed by leaf ref and fully rebuilt for each instance that
	// builds its own plan; reusing one map (and one lookup closure) avoids
	// re-allocating it per instance.
	infos := make(map[*ir.Ref]operandInfo)
	lookup := func(r *ir.Ref) operandInfo { return infos[r] }
	sc := &p.sc

	for k := 0; k < instances; k++ {
		// A new window starts a new varMap: the compiler's reuse map does
		// not cross windows (Section 4.4; the S22 example of Figure 12).
		p.win = int32(k/window) + 1
		iter := k / m
		stmtIdx := k % m
		storeLoc := tr.stores[k]

		// Attach in-window L1 copies of every located input leaf as
		// candidate reuse nodes if the shadow L1 still holds them.
		ps := &tr.pre[stmtIdx]
		for gr := len(sc.reuseBuf); gr < len(ps.leaves); gr++ {
			sc.reuseBuf = append(sc.reuseBuf, nil)
		}
		reuse := false
		if opts.ReuseAware {
			leaves, ids := tr.leavesOf(k)
			for li, ll := range leaves {
				// The candidate list lives in per-leaf scratch: it is only
				// read while this instance's plan is built.
				buf := sc.reuseBuf[li][:0]
				if id := ids[li]; p.varWin[id] == p.win {
					for _, n := range p.varMap[id] {
						if n != ll.Node() && p.l1.Contains(int(n), ll.Line) {
							buf = append(buf, n)
						}
					}
				}
				sc.reuseBuf[li] = buf
				reuse = reuse || len(buf) > 0
			}
		}

		// Without a reuse candidate the instance's plan is its reuse-free
		// one, which a sweep has already built.
		var plan *StatementPlan
		var an *PlanAnalysis
		if tr.plans != nil && !reuse {
			plan, an = &tr.plans.plans[k], &tr.plans.ans[k]
		} else {
			tr.fillOperands(infos, k, sc.reuseBuf)
			plan = sc.builder.build(ps.set, lookup, storeLoc)
			an = plan.AnalyzeInto(&sc.an)
		}
		extra := p.place(plan, an, ps, stmtIdx, iter, k/window)
		if p.sched != nil {
			p.emitArcs(storeLoc, tr.storeIDs[k])
		}
		p.touch(storeLoc, tr.storeIDs[k])

		// Aggregate statement metrics.
		mv := plan.Movement + extra
		stats.TotalMovement += int64(mv)
		if mv > stats.MaxMovement {
			stats.MaxMovement = mv
		}
		sumPar += float64(an.Parallelism)
		if an.Parallelism > stats.MaxParallelism {
			stats.MaxParallelism = an.Parallelism
		}
		sumSub += float64(an.Subcomputations)
		stats.ReuseHits += int64(plan.ReuseHits)
	}

	if instances > 0 {
		stats.AvgMovement = float64(stats.TotalMovement) / float64(instances)
		stats.AvgParallelism = sumPar / float64(instances)
		stats.SubcomputationsPerStatement = sumSub / float64(instances)
	}
	stats.L1HitRate = p.l1.Stats().HitRate()
	stats.Imbalance = p.lt.Imbalance()

	return &passResult{window: window, schedule: p.sched, stats: stats, offloadMix: p.offload}
}

// emitArcs adds the instance's inter-statement arcs to its placed tasks and
// names its root's result line, whose ID is sid; touch records the store.
func (p *pass) emitArcs(storeLoc LineLoc, sid int32) {
	sched, dt := p.sched, p.dt
	// Flow dependences: the root (and any task fetching a previously
	// written line) must follow the writer. When the fetch already sources
	// the writer's node — the only location holding a valid copy after
	// write-invalidation — the fresh line rides the producer handshake into
	// the consumer's L1 (store-to-load forwarding), so the fetch is serviced
	// at L1 cost rather than re-reading the L2 bank or DRAM.
	for _, pt := range p.sc.placed {
		t := pt.task
		for fi, id := range p.sc.ids[pt.lo:pt.hi] {
			if w, ok := p.res.Writer(id); ok {
				f := &t.Fetches[fi]
				t.addWait(int(w.Task), dt.Between(sched.Tasks[w.Task].Node, t.Node))
				sched.SyncsBefore++
				if sched.Tasks[w.Task].Node == f.From {
					f.L1Hit = true
					f.L2Miss = false
				}
			}
		}
	}
	// Anti dependences (WAR): the root's store must not overtake earlier
	// reads of the output line issued from other nodes. Same-node readers
	// are already ordered by the per-node program order the simulator and
	// codegen preserve, so they need no arc; readers come in ascending node
	// order, which keeps emission deterministic.
	root := p.sc.placed[len(p.sc.placed)-1].task
	for _, r := range p.res.Readers(sid) {
		if r.Node != root.Node {
			root.addWait(int(r.Task), dt.Between(r.Node, root.Node))
			sched.SyncsBefore++
		}
	}
	root.ResultLine, root.ResultID = storeLoc.Line, sid
}

// touch updates the reuse map and the shadow L1s with what the instance
// pulled where, then applies its store to the output line, whose ID is
// sid: every fetched line lands in the L1 of the task that consumed it
// (that is where a later statement can find a copy — the C(i) in n_D's L1
// of Figure 11).
func (p *pass) touch(storeLoc LineLoc, sid int32) {
	sc := &p.sc
	for _, pt := range sc.placed {
		for fi, line := range sc.lines[pt.lo:pt.hi] {
			// Physical locality: a line still resident in the consuming
			// node's L1 (from any earlier access, window or not) is an L1
			// hit and needs no L2/DRAM service.
			if p.l1.Access(int(pt.node), line) && pt.task != nil {
				f := &pt.task.Fetches[fi]
				f.L1Hit = true
				f.L2Miss = false
			}
			id := sc.ids[pt.lo+fi]
			if p.varWin[id] != p.win {
				p.varWin[id] = p.win
				p.varMap[id] = p.varMap[id][:0]
			}
			p.varMap[id] = appendNode(p.varMap[id], pt.node)
			p.res.Read(id, pt.node, pt.id)
		}
	}
	// The root's store, at the line's home, supersedes all recorded readers
	// of the output line: this instance's own reads happen before it (tree
	// arcs plus per-node order guarantee it), and later writers are ordered
	// against the root as the line's writer.
	//
	// Write-invalidate: the store also kills every remote copy of the line
	// in both copy models — the shadow L1s and the reuse map — so no later
	// statement plans an L1 reuse from a pre-write copy. The verifier
	// replays the same model and rejects stale hits outright. Only the
	// holders the residency reports can have a copy: every shadow-L1 insert
	// is either a fetch, recorded as a read until the line's next write, or
	// a store at the line's home, which keeps its copy.
	for _, n := range p.res.Write(sid, storeLoc.Home, sc.placed[len(sc.placed)-1].id) {
		p.l1.Invalidate(int(n), storeLoc.Line)
	}
	p.l1.Access(int(storeLoc.Home), storeLoc.Line)
	p.varWin[sid] = p.win
	p.varMap[sid] = append(p.varMap[sid][:0], storeLoc.Home)
}

// appendNode appends n to nodes if absent.
func appendNode(nodes []mesh.NodeID, n mesh.NodeID) []mesh.NodeID {
	for _, x := range nodes {
		if x == n {
			return nodes
		}
	}
	return append(nodes, n)
}

package core

import (
	"math/rand"
	"testing"

	"dmacp/internal/ir"
	"dmacp/internal/mesh"
)

// fixedOps builds an operand lookup that places each array at a fixed node.
func fixedOps(m *mesh.Mesh, pos map[string]mesh.Coord) func(*ir.Ref) operandInfo {
	lines := map[string]uint64{}
	next := uint64(0x1000)
	return func(r *ir.Ref) operandInfo {
		if _, ok := lines[r.Array]; !ok {
			lines[r.Array] = next
			next += 64
		}
		c := pos[r.Array]
		n := m.NodeAt(c.X, c.Y)
		return operandInfo{loc: LineLoc{Line: lines[r.Array], Home: n, MC: n, PredictedHit: true, ActualHit: true}}
	}
}

// TestBuildPlanSingleStatement mirrors the Figure 9 walk-through: a flat sum
// A(i)=B+C+D+E with known node positions. With B=(1,0), E=(0,0), A=(2,1),
// D=(3,2), C=(3,4) the MST is {B-E:1, A-B:2, A-D:2, D-C:2} totaling 7, versus
// 11 for fetching everything to A.
func TestBuildPlanSingleStatement(t *testing.T) {
	m := mesh.MustNew(6, 6)
	pos := map[string]mesh.Coord{
		"B": {X: 1, Y: 0}, "E": {X: 0, Y: 0}, "A": {X: 2, Y: 1}, "D": {X: 3, Y: 2}, "C": {X: 3, Y: 4},
	}
	ops := fixedOps(m, pos)
	stmt := ir.MustParseStatement("A(i) = B(i)+C(i)+D(i)+E(i)")
	set := ir.NestedSets(stmt.RHS)
	store := ops(stmt.LHS).loc

	plan := buildPlan(m.DistanceTable(), set, ops, store)
	if plan.Movement != 7 {
		t.Errorf("Movement = %d, want 7", plan.Movement)
	}
	if len(plan.Edges) != 4 {
		t.Errorf("edges = %d, want 4", len(plan.Edges))
	}
	if !plan.Vertices[plan.Root].IsStore {
		t.Error("root is not the store vertex")
	}
	if plan.Vertices[plan.Root].Node != m.NodeAt(2, 1) {
		t.Errorf("store node = %v", m.CoordOf(plan.Vertices[plan.Root].Node))
	}

	an := plan.AnalyzeInto(&PlanAnalysis{})
	if an.Parallelism != 2 {
		t.Errorf("Parallelism = %d, want 2 (B+E chain and C+D chain)", an.Parallelism)
	}
	if an.Syncs != 2 {
		t.Errorf("Syncs = %d, want 2 (store waits on both partials)", an.Syncs)
	}
	if an.Subcomputations != 3 {
		t.Errorf("Subcomputations = %d, want 3 (B+E, C+D, final)", an.Subcomputations)
	}
	// Total ops = 3 binary additions.
	total := 0
	for _, o := range an.OpsAt {
		total += o
	}
	if total != 3 {
		t.Errorf("total ops = %d, want 3", total)
	}
}

// TestBuildPlanDefaultComparison: the default execution of the same
// statement fetches all inputs to the store node, costing the sum of
// distances (11); the optimized plan must never exceed it.
func TestBuildPlanNeverWorseThanDefault(t *testing.T) {
	m := mesh.MustNew(6, 6)
	pos := map[string]mesh.Coord{
		"B": {X: 1, Y: 0}, "E": {X: 0, Y: 0}, "A": {X: 2, Y: 1}, "D": {X: 3, Y: 2}, "C": {X: 3, Y: 4},
	}
	ops := fixedOps(m, pos)
	stmt := ir.MustParseStatement("A(i) = B(i)+C(i)+D(i)+E(i)")
	store := ops(stmt.LHS).loc
	defaultMove := 0
	for _, in := range stmt.Inputs() {
		defaultMove += m.Distance(store.Home, ops(in).loc.Home)
	}
	if defaultMove != 11 {
		t.Fatalf("default movement = %d, want 11", defaultMove)
	}
	plan := buildPlan(m.DistanceTable(), ir.NestedSets(stmt.RHS), ops, store)
	if plan.Movement > defaultMove {
		t.Errorf("optimized %d > default %d", plan.Movement, defaultMove)
	}
}

// TestBuildPlanLevelBased mirrors Figure 10: A = B*(C+D+E). The sum (C,D,E)
// forms its own component first; B then attaches to the component by its
// shortest edge, and the store joins last.
func TestBuildPlanLevelBased(t *testing.T) {
	m := mesh.MustNew(6, 6)
	pos := map[string]mesh.Coord{
		"A": {X: 0, Y: 0}, "B": {X: 2, Y: 2}, "C": {X: 3, Y: 2}, "D": {X: 4, Y: 2}, "E": {X: 5, Y: 2},
	}
	ops := fixedOps(m, pos)
	stmt := ir.MustParseStatement("A(i) = B(i)*(C(i)+D(i)+E(i))")
	plan := buildPlan(m.DistanceTable(), ir.NestedSets(stmt.RHS), ops, ops(stmt.LHS).loc)
	// Inner MST: C-D (1) + D-E (1) = 2. B attaches to C at distance 1.
	// Store A attaches to B at distance 4. Total 7.
	if plan.Movement != 7 {
		t.Errorf("Movement = %d, want 7", plan.Movement)
	}
	// The inner sum edges must connect C, D, E before B joins: verify the
	// first two committed edges are the weight-1 inner ones.
	if plan.Edges[0].Weight != 1 || plan.Edges[1].Weight != 1 {
		t.Errorf("inner edges = %+v", plan.Edges[:2])
	}
}

// TestBuildPlanReuse mirrors Figure 11: after S1 leaves C in the L1 of n_D,
// S2 (X = Y + C) should prefer the copy at n_D when that reduces movement.
func TestBuildPlanReuse(t *testing.T) {
	m := mesh.MustNew(6, 6)
	nC := m.NodeAt(5, 5)
	nD := m.NodeAt(2, 2)
	nY := m.NodeAt(1, 2)
	nX := m.NodeAt(1, 1)
	lineC, lineY := uint64(0x100), uint64(0x200)

	ops := func(r *ir.Ref) operandInfo {
		switch r.Array {
		case "C":
			return operandInfo{
				loc:        LineLoc{Line: lineC, Home: nC, MC: nC, PredictedHit: true, ActualHit: true},
				reuseNodes: []mesh.NodeID{nD},
			}
		case "Y":
			return operandInfo{loc: LineLoc{Line: lineY, Home: nY, MC: nY, PredictedHit: true, ActualHit: true}}
		}
		return operandInfo{loc: LineLoc{Line: 0x300, Home: nX, MC: nX, PredictedHit: true, ActualHit: true}}
	}
	stmt := ir.MustParseStatement("X(i) = Y(i)+C(i)")
	store := LineLoc{Line: 0x300, Home: nX, MC: nX, PredictedHit: true, ActualHit: true}
	plan := buildPlan(m.DistanceTable(), ir.NestedSets(stmt.RHS), ops, store)

	// Without reuse: Y at (1,2) -> C at (5,5) costs 7, plus X join. With the
	// copy at n_D (2,2), C connects to Y at distance 1 and to X at 1 more.
	if plan.ReuseHits != 1 {
		t.Errorf("ReuseHits = %d, want 1", plan.ReuseHits)
	}
	if plan.Movement != 2 {
		t.Errorf("Movement = %d, want 2 (Y-C(copy)=1, Y-X=1)", plan.Movement)
	}
	// The C vertex must be pinned at the reuse node.
	found := false
	for _, v := range plan.Vertices {
		if len(v.ReusedLines) == 1 && v.Node == nD {
			found = true
		}
	}
	if !found {
		t.Error("no vertex pinned at the reuse node with a reused line")
	}
}

// TestBuildPlanDedupSameLine: a statement using the same element twice
// fetches it once.
func TestBuildPlanDedupSameLine(t *testing.T) {
	m := mesh.MustNew(4, 4)
	pos := map[string]mesh.Coord{"A": {X: 0, Y: 0}, "B": {X: 3, Y: 3}}
	ops := fixedOps(m, pos)
	stmt := ir.MustParseStatement("A(i) = B(i)+B(i)")
	plan := buildPlan(m.DistanceTable(), ir.NestedSets(stmt.RHS), ops, ops(stmt.LHS).loc)
	if plan.Movement != 6 {
		t.Errorf("Movement = %d, want 6 (one B fetch)", plan.Movement)
	}
	nonStore := 0
	for _, v := range plan.Vertices {
		if !v.IsStore {
			nonStore++
		}
	}
	if nonStore != 1 {
		t.Errorf("%d operand vertices, want 1 after dedup", nonStore)
	}
}

// TestBuildPlanPredictedMissUsesMC: a predicted L2 miss relocates the
// operand to its memory controller.
func TestBuildPlanPredictedMissUsesMC(t *testing.T) {
	m := mesh.MustNew(6, 6)
	home := m.NodeAt(3, 3)
	mc := m.NodeAt(0, 0)
	storeN := m.NodeAt(1, 0)
	ops := func(r *ir.Ref) operandInfo {
		return operandInfo{loc: LineLoc{Line: 0x40, Home: home, MC: mc, PredictedHit: false}}
	}
	stmt := ir.MustParseStatement("A(i) = B(i)")
	store := LineLoc{Line: 0x80, Home: storeN, MC: mc, PredictedHit: true, ActualHit: true}
	plan := buildPlan(m.DistanceTable(), ir.NestedSets(stmt.RHS), ops, store)
	if plan.Movement != 1 {
		t.Errorf("Movement = %d, want 1 (MC at (0,0) to store at (1,0))", plan.Movement)
	}
	var missSeen bool
	for _, v := range plan.Vertices {
		if len(v.MissLines) > 0 {
			missSeen = true
			if v.Node != mc {
				t.Errorf("miss line vertex at %v, want MC", m.CoordOf(v.Node))
			}
		}
	}
	if !missSeen {
		t.Error("no vertex carries the miss line")
	}
}

// TestBuildPlanSingleOperandSameNode: operand co-located with the store
// yields zero movement.
func TestBuildPlanZeroMovement(t *testing.T) {
	m := mesh.MustNew(4, 4)
	n := m.NodeAt(2, 2)
	ops := func(r *ir.Ref) operandInfo {
		return operandInfo{loc: LineLoc{Line: 0x40, Home: n, MC: n, PredictedHit: true, ActualHit: true}}
	}
	stmt := ir.MustParseStatement("A(i) = B(i)")
	plan := buildPlan(m.DistanceTable(), ir.NestedSets(stmt.RHS), ops, LineLoc{Line: 0x80, Home: n, MC: n, PredictedHit: true, ActualHit: true})
	if plan.Movement != 0 {
		t.Errorf("Movement = %d, want 0", plan.Movement)
	}
}

// Paper example arithmetic: the Figure 3 discussion reduces 13 movements to
// 8 by computing B+E at n_B and C+D at n_D. Reconstructing that exact
// geometry: A=(2,2), B=(1,1) (d(A,B)=2), E=(0,1) (d(B,E)=1, d(A,E)=3),
// D=(3,4) (d(A,D)=3), C=(5,4) (d(C,D)=2, d(A,C)=5).
// Default: 2+5+3+3 = 13. MST: B-E(1)+A-B(2)+A-D(3)+D-C(2) = 8.
func TestBuildPlanFigure3Geometry(t *testing.T) {
	m := mesh.MustNew(8, 8)
	pos := map[string]mesh.Coord{
		"A": {X: 2, Y: 2}, "B": {X: 1, Y: 1}, "E": {X: 0, Y: 1}, "D": {X: 3, Y: 4}, "C": {X: 5, Y: 4},
	}
	ops := fixedOps(m, pos)
	stmt := ir.MustParseStatement("A(i) = B(i)+C(i)+D(i)+E(i)")
	store := ops(stmt.LHS).loc
	defaultMove := 0
	for _, in := range stmt.Inputs() {
		defaultMove += m.Distance(store.Home, ops(in).loc.Home)
	}
	if defaultMove != 13 {
		t.Fatalf("default = %d, want 13", defaultMove)
	}
	plan := buildPlan(m.DistanceTable(), ir.NestedSets(stmt.RHS), ops, store)
	if plan.Movement != 8 {
		t.Errorf("optimized = %d, want 8", plan.Movement)
	}
}

// TestFigure11MultiStatement reconstructs the Section 5 multi-statement
// scenario: S1 = A+B+C+D+E leaves C in the L1 of n_D; S2 = Y+C can then be
// scheduled against the copy. The three totals must be strictly ordered the
// way Figure 11 reports (default 22 > single-statement 15 > reuse-aware 13
// in the paper's geometry; ours uses the Figure 3 geometry for S1 plus a
// consistent S2 layout).
func TestFigure11MultiStatement(t *testing.T) {
	m := mesh.MustNew(8, 8)
	pos := map[string]mesh.Coord{
		// S1 geometry = the Figure 3 example (default 13, optimized 8).
		"A": {X: 2, Y: 2}, "B": {X: 1, Y: 1}, "E": {X: 0, Y: 1}, "D": {X: 3, Y: 4}, "C": {X: 5, Y: 4},
		// S2: X and Y sit near n_D, far from C's home.
		"X": {X: 2, Y: 3}, "Y": {X: 2, Y: 4},
	}
	ops := fixedOps(m, pos)
	s1 := ir.MustParseStatement("A(i) = B(i)+C(i)+D(i)+E(i)")
	s2 := ir.MustParseStatement("X(i) = Y(i)+C(i)")
	nD := m.NodeAt(3, 4)

	// Default totals: everything fetched to the store nodes.
	defTotal := 0
	for _, s := range []*ir.Statement{s1, s2} {
		store := ops(s.LHS).loc
		for _, in := range s.Inputs() {
			defTotal += m.Distance(store.Home, ops(in).loc.Home)
		}
	}

	// Single-statement optimization: independent MSTs.
	p1 := buildPlan(m.DistanceTable(), ir.NestedSets(s1.RHS), ops, ops(s1.LHS).loc)
	p2solo := buildPlan(m.DistanceTable(), ir.NestedSets(s2.RHS), ops, ops(s2.LHS).loc)
	soloTotal := p1.Movement + p2solo.Movement

	// Verify S1 indeed gathers C at n_D (the premise of the reuse).
	gatheredAtD := false
	an := p1.AnalyzeInto(&PlanAnalysis{})
	for v, parent := range an.Parent {
		if parent >= 0 && p1.Vertices[v].Node == ops(s2.Inputs()[1]).loc.Home && p1.Vertices[parent].Node == nD {
			gatheredAtD = true
		}
	}
	if !gatheredAtD {
		t.Fatalf("S1 plan does not gather C at n_D; edges: %+v", p1.Edges)
	}

	// Reuse-aware S2: C has a candidate copy at n_D.
	reuseOps := func(r *ir.Ref) operandInfo {
		info := ops(r)
		if r.Array == "C" {
			info.reuseNodes = []mesh.NodeID{nD}
		}
		return info
	}
	p2reuse := buildPlan(m.DistanceTable(), ir.NestedSets(s2.RHS), reuseOps, ops(s2.LHS).loc)
	reuseTotal := p1.Movement + p2reuse.Movement

	if !(defTotal > soloTotal && soloTotal > reuseTotal) {
		t.Errorf("totals not strictly ordered: default %d, single-stmt %d, reuse %d",
			defTotal, soloTotal, reuseTotal)
	}
	if p2reuse.ReuseHits != 1 {
		t.Errorf("S2 reuse hits = %d, want 1", p2reuse.ReuseHits)
	}
}

// TestBuildPlanNeverWorseProperty: for random operand/store placements, a
// FLAT statement's plan movement must never exceed the default star (all
// operands fetched to the store node): the star is itself a spanning tree of
// the operand/store graph, so the unconstrained MST cannot lose.
//
// Parenthesized statements are deliberately excluded from the strict bound:
// the paper's level-based scheme commits each inner set's MST before seeing
// the outer level, and a distant inner pair (e.g. (F+G) with F and G on
// opposite corners) can cost slightly more than routing both operands
// through the store — the price of preserving computation priority. Those
// shapes get a slack-bounded check instead.
func TestBuildPlanNeverWorseProperty(t *testing.T) {
	m := mesh.MustNew(8, 8)
	flat := []string{
		"A(i) = B(i)+C(i)+D(i)+E(i)",
		"A(i) = B(i)+C(i)",
		"A(i) = B(i)/C(i)*D(i)",
		"A(i) = B(i)+C(i)+D(i)+E(i)+F(i)+G(i)",
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		stmt := ir.MustParseStatement(flat[trial%len(flat)])
		pos := map[string]mesh.Coord{}
		for _, r := range stmt.AllRefs() {
			pos[r.Array] = mesh.Coord{X: rng.Intn(8), Y: rng.Intn(8)}
		}
		ops := fixedOps(m, pos)
		store := ops(stmt.LHS).loc
		// Default: one fetch per distinct input line to the store node.
		seen := map[uint64]bool{}
		def := 0
		for _, in := range stmt.Inputs() {
			info := ops(in)
			if seen[info.loc.Line] {
				continue
			}
			seen[info.loc.Line] = true
			def += m.Distance(store.Home, info.loc.Node())
		}
		plan := buildPlan(m.DistanceTable(), ir.NestedSets(stmt.RHS), ops, store)
		if plan.Movement > def {
			t.Fatalf("trial %d (%s): plan movement %d > default %d (pos %v)",
				trial, stmt, plan.Movement, def, pos)
		}
		// The plan must stay internally consistent too.
		an := plan.AnalyzeInto(&PlanAnalysis{})
		if len(an.PostOrder) != len(plan.Vertices) {
			t.Fatalf("trial %d: disconnected plan", trial)
		}
	}
}

// TestBuildPlanMatchesBruteForceMST: with every operand a predicted hit each
// plan vertex has one candidate node, so a FLAT statement's plan must be a
// minimum spanning tree of the store and operand nodes: its movement equals
// the brute-force minimum over all spanning trees of those nodes.
func TestBuildPlanMatchesBruteForceMST(t *testing.T) {
	m := mesh.MustNew(8, 8)
	flat := []string{
		"A(i) = B(i)+C(i)+D(i)+E(i)",
		"A(i) = B(i)+C(i)",
		"A(i) = B(i)/C(i)*D(i)",
		"A(i) = B(i)+C(i)+D(i)+E(i)+F(i)+G(i)",
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		stmt := ir.MustParseStatement(flat[trial%len(flat)])
		pos := map[string]mesh.Coord{}
		for _, r := range stmt.AllRefs() {
			pos[r.Array] = mesh.Coord{X: rng.Intn(8), Y: rng.Intn(8)}
		}
		ops := fixedOps(m, pos)
		store := ops(stmt.LHS).loc
		// One vertex per distinct line: the store, then each input line.
		seen := map[uint64]bool{}
		nodes := []mesh.NodeID{store.Home}
		for _, in := range stmt.Inputs() {
			info := ops(in)
			if seen[info.loc.Line] {
				continue
			}
			seen[info.loc.Line] = true
			nodes = append(nodes, info.loc.Node())
		}
		plan := buildPlan(m.DistanceTable(), ir.NestedSets(stmt.RHS), ops, store)
		if want := bruteForceMSTWeight(m, nodes); plan.Movement != want {
			t.Fatalf("trial %d (%s): plan movement %d, brute-force MST %d (pos %v)",
				trial, stmt, plan.Movement, want, pos)
		}
	}
}

// TestBuildPlanFigure4MSTWeight: Figure 4 builds the minimum spanning tree of
// A=B+C+D+E's operands, of weight 8. The Figure 3 geometry must reproduce the
// distances the paper names, its brute-force MST weight must be 8, and the
// splitter's plan must reach it.
func TestBuildPlanFigure4MSTWeight(t *testing.T) {
	m := mesh.MustNew(8, 8)
	pos := map[string]mesh.Coord{
		"A": {X: 2, Y: 2}, "B": {X: 1, Y: 1}, "E": {X: 0, Y: 1}, "D": {X: 3, Y: 4}, "C": {X: 5, Y: 4},
	}
	node := func(n string) mesh.NodeID { return m.NodeAt(pos[n].X, pos[n].Y) }
	for _, d := range []struct {
		u, v string
		want int
	}{
		{"A", "B", 2}, {"A", "C", 5}, {"A", "D", 3}, {"A", "E", 3},
		{"B", "E", 1}, {"C", "D", 2},
	} {
		if got := m.Distance(node(d.u), node(d.v)); got != d.want {
			t.Errorf("d(%s,%s) = %d, want %d", d.u, d.v, got, d.want)
		}
	}
	nodes := []mesh.NodeID{node("A"), node("B"), node("C"), node("D"), node("E")}
	if w := bruteForceMSTWeight(m, nodes); w != 8 {
		t.Errorf("paper example MST weight = %d, want 8", w)
	}
	ops := fixedOps(m, pos)
	stmt := ir.MustParseStatement("A(i) = B(i)+C(i)+D(i)+E(i)")
	plan := buildPlan(m.DistanceTable(), ir.NestedSets(stmt.RHS), ops, ops(stmt.LHS).loc)
	if plan.Movement != 8 {
		t.Errorf("plan movement = %d, want the MST weight 8", plan.Movement)
	}
}

// bruteForceMSTWeight returns the minimum total mesh distance over every
// spanning tree of the given nodes (one vertex per entry), enumerating all
// k^(k-2) labeled trees through their Prüfer sequences.
func bruteForceMSTWeight(m *mesh.Mesh, nodes []mesh.NodeID) int {
	k := len(nodes)
	switch k {
	case 0, 1:
		return 0
	case 2:
		return m.Distance(nodes[0], nodes[1])
	}
	seq := make([]int, k-2)
	degree := make([]int, k)
	best := -1
	for {
		for i := range degree {
			degree[i] = 1
		}
		for _, s := range seq {
			degree[s]++
		}
		weight := 0
		for _, s := range seq {
			for leaf := 0; leaf < k; leaf++ {
				if degree[leaf] == 1 {
					weight += m.Distance(nodes[leaf], nodes[s])
					degree[leaf]--
					degree[s]--
					break
				}
			}
		}
		u, v := -1, -1
		for i, d := range degree {
			if d == 1 {
				if u < 0 {
					u = i
				} else {
					v = i
				}
			}
		}
		weight += m.Distance(nodes[u], nodes[v])
		if best < 0 || weight < best {
			best = weight
		}
		i := 0
		for ; i < len(seq); i++ {
			if seq[i]++; seq[i] < k {
				break
			}
			seq[i] = 0
		}
		if i == len(seq) {
			return best
		}
	}
}

// TestBuildPlanGroupedSlackBound: parenthesized statements may exceed the
// star by the level-based constraint, but only within the triangle-
// inequality slack of the inner groups; a 1.5x star bound is generous and
// catches real regressions.
func TestBuildPlanGroupedSlackBound(t *testing.T) {
	m := mesh.MustNew(8, 8)
	shapes := []string{
		"A(i) = B(i)*(C(i)+D(i)+E(i))",
		"A(i) = B(i)*(C(i)+D(i)) + E(i)*(F(i)+G(i))",
		"A(i) = (B(i)+C(i))*(D(i)+E(i))",
	}
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 300; trial++ {
		stmt := ir.MustParseStatement(shapes[trial%len(shapes)])
		pos := map[string]mesh.Coord{}
		for _, r := range stmt.AllRefs() {
			pos[r.Array] = mesh.Coord{X: rng.Intn(8), Y: rng.Intn(8)}
		}
		ops := fixedOps(m, pos)
		store := ops(stmt.LHS).loc
		def := 0
		for _, in := range stmt.Inputs() {
			def += m.Distance(store.Home, ops(in).loc.Node())
		}
		plan := buildPlan(m.DistanceTable(), ir.NestedSets(stmt.RHS), ops, store)
		if float64(plan.Movement) > 1.5*float64(def)+1 {
			t.Fatalf("trial %d (%s): plan movement %d way above star %d", trial, stmt, plan.Movement, def)
		}
	}
}

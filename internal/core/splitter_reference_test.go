package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dmacp/internal/ir"
	"dmacp/internal/mesh"
)

// referenceBuilder is the statement splitter as it stood before the level
// MST cached its pair distances, kept as the test-only reference
// TestBuildPlanMatchesReference compares planBuilder.build against: its
// mstOver recomputes closestPair for every item pair in every round. Every
// other step is the production builder's, reached through the embedding;
// build, collectItems and processGroup are repeated only so that they call
// this mstOver.
type referenceBuilder struct{ planBuilder }

func (b *referenceBuilder) build(set *ir.SetNode, ops func(*ir.Ref) operandInfo, store LineLoc) *StatementPlan {
	b.vertices = b.vertices[:0]
	b.edges = b.edges[:0]
	b.reuse = 0
	b.nItems = 0
	b.stack = b.stack[:0]
	b.collectItems(set, ops)
	storeIdx := b.newVertex(store.Home, true)
	sit := b.newItem()
	sit.pinned = true
	sit.members = append(sit.members, storeIdx)
	b.stack = append(b.stack, sit)
	b.mstOver(0)
	movement := 0
	for _, e := range b.edges {
		movement += e.Weight
	}
	b.plan = StatementPlan{Vertices: b.vertices, Edges: b.edges, Root: storeIdx, Movement: movement, ReuseHits: b.reuse}
	return &b.plan
}

func (b *referenceBuilder) collectItems(group *ir.SetNode, ops func(*ir.Ref) operandInfo) {
	start := len(b.stack)
	for _, el := range group.Group {
		if el.IsLeaf() {
			info := ops(el.Ref)
			if b.lineSeen(start, info.loc.Line) {
				continue
			}
			it := b.newItem()
			it.info = info
			it.vidx = b.newVertex(mesh.InvalidNode, false)
			b.setLine(it.vidx, info)
			b.stack = append(b.stack, it)
		} else {
			b.stack = append(b.stack, b.processGroup(el, ops))
		}
	}
}

func (b *referenceBuilder) processGroup(group *ir.SetNode, ops func(*ir.Ref) operandInfo) *planItem {
	start := len(b.stack)
	b.collectItems(group, ops)
	if len(b.stack) == start {
		it := b.newItem()
		it.pinned = true
		return it
	}
	return b.mstOver(start)
}

func (b *referenceBuilder) mstOver(start int) *planItem {
	items := b.stack[start:]
	live := items[:0]
	for _, it := range items {
		if !it.pinned || len(it.members) > 0 {
			live = append(live, it)
		}
	}
	items = live
	pop := func() { b.stack = b.stack[:start] }
	if len(items) == 0 {
		pop()
		it := b.newItem()
		it.pinned = true
		return it
	}
	if len(items) == 1 {
		b.pinDefault(items[0])
		it := items[0]
		pop()
		return it
	}
	b.comp = b.comp[:0]
	for i := range items {
		b.comp = append(b.comp, i)
	}
	comp := b.comp
	for remaining := len(items); remaining > 1; remaining-- {
		bi, bj := -1, -1
		var bp pairDist
		best := 1 << 30
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				if comp[i] == comp[j] {
					continue
				}
				if p := b.closestPair(items[i], items[j]); p.d < best {
					best, bi, bj, bp = p.d, i, j, p
				}
			}
		}
		b.pin(items[bi], bp.n1)
		b.pin(items[bj], bp.n2)
		v1 := b.vertexAt(items[bi], bp.n1)
		v2 := b.vertexAt(items[bj], bp.n2)
		b.edges = append(b.edges, PlanEdge{From: v1, To: v2, Weight: best})
		from, to := comp[bj], comp[bi]
		for k := range comp {
			if comp[k] == from {
				comp[k] = to
			}
		}
	}
	merged := b.newItem()
	merged.pinned = true
	for _, it := range items {
		b.pinDefault(it)
		merged.members = append(merged.members, it.members...)
	}
	sort.Ints(merged.members)
	pop()
	return merged
}

// randomStatement renders a random statement over the arrays B..K: 2-5
// operands joined by + - * /, with literals among them, and — when parens is
// set — operands replaced by parenthesized sub-expressions up to two deep.
func randomStatement(rng *rand.Rand, parens bool) *ir.Statement {
	ops := []string{"+", "-", "*", "/"}
	var expr func(depth int) string
	expr = func(depth int) string {
		var sb strings.Builder
		for k, n := 0, 2+rng.Intn(4); k < n; k++ {
			if k > 0 {
				sb.WriteString(ops[rng.Intn(len(ops))])
			}
			switch r := rng.Intn(8); {
			case parens && depth < 2 && r < 3:
				sb.WriteString("(" + expr(depth+1) + ")")
			case r == 3:
				fmt.Fprintf(&sb, "%d", 1+rng.Intn(3))
			default:
				fmt.Fprintf(&sb, "%c(i+%d)", 'B'+rng.Intn(10), rng.Intn(2))
			}
		}
		return sb.String()
	}
	return ir.MustParseStatement("A(i) = " + expr(0))
}

// randomInfos locates every leaf of set: each leaf gets one of a few lines
// (so the splitter's same-line dedup fires), every line a random home and
// MC with random residency, and each leaf 0-3 reuse candidates.
func randomInfos(rng *rand.Rand, nodes int, set *ir.SetNode) map[*ir.Ref]operandInfo {
	node := func() mesh.NodeID { return mesh.NodeID(rng.Intn(nodes)) }
	locs := map[uint64]LineLoc{}
	infos := map[*ir.Ref]operandInfo{}
	for _, ref := range set.Leaves(nil) {
		line := 0x1000 + 64*uint64(rng.Intn(6))
		loc, ok := locs[line]
		if !ok {
			loc = LineLoc{Line: line, Home: node(), MC: node(), PredictedHit: rng.Intn(3) > 0, ActualHit: rng.Intn(3) > 0}
			locs[line] = loc
		}
		info := operandInfo{loc: loc}
		for k := rng.Intn(4); k > 0; k-- {
			info.reuseNodes = appendNode(info.reuseNodes, node())
		}
		infos[ref] = info
	}
	return infos
}

// TestBuildPlanMatchesReference checks that caching the level MST's pair
// distances changed no plan: over random flat and parenthesized statements
// with random locations and reuse candidates, on 6x6 and 8x8 meshes, the
// production builder's plans deep-equal the recompute-every-round
// reference's — vertices, edges, root, movement and reuse hits. Both
// builders are long-lived, as in a scheduling pass.
func TestBuildPlanMatchesReference(t *testing.T) {
	for _, side := range []int{6, 8} {
		m := mesh.MustNew(side, side)
		dt := m.DistanceTable()
		rng := rand.New(rand.NewSource(int64(side)))
		got := &planBuilder{dt: dt}
		want := &referenceBuilder{planBuilder{dt: dt}}
		for trial := 0; trial < 2000; trial++ {
			stmt := randomStatement(rng, trial%2 == 1)
			set := ir.NestedSets(stmt.RHS)
			infos := randomInfos(rng, m.Nodes(), set)
			lookup := func(r *ir.Ref) operandInfo { return infos[r] }
			store := LineLoc{Line: 0x100000, Home: mesh.NodeID(rng.Intn(m.Nodes()))}
			g := got.build(set, lookup, store)
			w := want.build(set, lookup, store)
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%dx%d trial %d (%s):\n  got  %+v\n  want %+v", side, side, trial, stmt, *g, *w)
			}
		}
	}
}

package analysis

// Tests for the interprocedural core: call-graph edge classes (static,
// interface dispatch, indirect through function and method values), the
// SCC summary fixpoint on mutual recursion, and determinism of both the
// graph iteration order and the -json diagnostic bytes across independent
// loads.

import (
	"bytes"
	"go/types"
	"strings"
	"testing"
)

func loadFixturePkgs(t *testing.T, pattern string) []*Package {
	t.Helper()
	pkgs, err := Load(LoadConfig{Tests: true}, pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("%s: no packages loaded", pattern)
	}
	return pkgs
}

// findNodeID resolves the unique graph node whose ID ends in suffix.
func findNodeID(t *testing.T, g *CallGraph, suffix string) string {
	t.Helper()
	var found []string
	for _, id := range g.Order() {
		if strings.HasSuffix(id, suffix) {
			found = append(found, id)
		}
	}
	if len(found) != 1 {
		t.Fatalf("node suffix %q matched %v, want exactly one", suffix, found)
	}
	return found[0]
}

func hasCallee(callees []string, suffix string) bool {
	for _, c := range callees {
		if strings.HasSuffix(c, suffix) {
			return true
		}
	}
	return false
}

// TestCallGraphEdgeClasses pins the three edge classes on the callgraph
// fixture: interface dispatch fans out to every loaded implementation,
// indirect calls fan out to signature-assignable address-taken functions
// (including a method value), and neither conservative class pollutes the
// static edges.
func TestCallGraphEdgeClasses(t *testing.T) {
	pkgs := loadFixturePkgs(t, "./testdata/src/callgraph")
	g := buildCallGraph(pkgs)

	totalArea := findNodeID(t, g, "callgraph.totalArea")
	iface := g.Callees(totalArea, false, true, false)
	if !hasCallee(iface, "square).area") || !hasCallee(iface, "circle).area") {
		t.Errorf("totalArea interface-dispatch edges = %v, want both area implementations", iface)
	}
	if static := g.Callees(totalArea, true, false, false); len(static) != 0 {
		t.Errorf("totalArea static edges = %v, want none", static)
	}

	apply := findNodeID(t, g, "callgraph.apply")
	indirect := g.Callees(apply, false, false, true)
	if !hasCallee(indirect, "callgraph.double") {
		t.Errorf("apply indirect edges = %v, want callgraph.double", indirect)
	}
	if hasCallee(indirect, "square).area") {
		t.Errorf("apply indirect edges = %v: func(int) int must not reach a func() int method", indirect)
	}

	callThunk := findNodeID(t, g, "callgraph.callThunk")
	thunkTargets := g.Callees(callThunk, false, false, true)
	if !hasCallee(thunkTargets, "square).area") {
		t.Errorf("callThunk indirect edges = %v, want the address-taken method value square.area", thunkTargets)
	}

	useApply := findNodeID(t, g, "callgraph.useApply")
	if static := g.Callees(useApply, true, false, false); !hasCallee(static, "callgraph.apply") {
		t.Errorf("useApply static edges = %v, want callgraph.apply", static)
	}
}

// TestSummaryFixpointMutualRecursion pins the SCC fixpoint: pingKeys and
// pongKeys form a cycle in which only pingKeys touches a map, and both
// must converge to nondet-order summaries.
func TestSummaryFixpointMutualRecursion(t *testing.T) {
	pkgs := loadFixturePkgs(t, "./testdata/src/callgraph")
	facts := ComputeFacts(pkgs)
	for _, name := range []string{"pingKeys", "pongKeys"} {
		obj, ok := pkgs[0].Types.Scope().Lookup(name).(*types.Func)
		if !ok {
			t.Fatalf("fixture function %s not found", name)
		}
		s := facts.SummaryForFunc(obj)
		if !s.NondetOrder {
			t.Errorf("%s: NondetOrder = false, want true (SCC fixpoint must propagate around the cycle)", name)
		}
	}
}

// TestCallGraphDeterministicDump pins graph iteration order: two
// independent loads of the same fixture must dump byte-identical graphs.
func TestCallGraphDeterministicDump(t *testing.T) {
	d1 := buildCallGraph(loadFixturePkgs(t, "./testdata/src/callgraph")).Dump()
	d2 := buildCallGraph(loadFixturePkgs(t, "./testdata/src/callgraph")).Dump()
	if d1 != d2 {
		t.Errorf("call graph dump differs across loads:\n--- first\n%s\n--- second\n%s", d1, d2)
	}
	if !strings.Contains(d1, "callgraph.totalArea") {
		t.Errorf("dump looks empty:\n%s", d1)
	}
}

// TestDiagnosticsJSONDeterministic pins the full pipeline end to end: two
// independent loads and runs of the whole suite over every analyzer fixture
// must produce byte-identical -json output, and that output must carry
// findings from each of the eight analyzers (so the comparison is never
// between two empty lists) and the cross-package detflow findings.
func TestDiagnosticsJSONDeterministic(t *testing.T) {
	run := func() []byte {
		pkgs := loadFixturePkgs(t, "./testdata/src/...")
		out, err := DiagnosticsJSON(Run(pkgs, All()))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	j1, j2 := run(), run()
	if !bytes.Equal(j1, j2) {
		t.Errorf("-json output differs across independent runs:\n--- first\n%s\n--- second\n%s", j1, j2)
	}
	frags := []string{"map-iteration-ordered"}
	for _, a := range All() {
		frags = append(frags, `"analyzer": "`+a.Name+`"`)
	}
	for _, frag := range frags {
		if !bytes.Contains(j1, []byte(frag)) {
			t.Errorf("-json output missing %q:\n%s", frag, j1)
		}
	}
}

// TestDiagnosticsJSONEmpty pins the []-not-null contract.
func TestDiagnosticsJSONEmpty(t *testing.T) {
	out, err := DiagnosticsJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(out)) != "[]" {
		t.Errorf("empty diagnostics encode as %q, want []", out)
	}
}

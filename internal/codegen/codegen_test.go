package codegen

import (
	"bytes"
	"strings"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
)

// partitionSmall runs the partitioner over a two-statement nest and returns
// everything Generate needs.
func partitionSmall(t *testing.T) (*core.Result, *ir.Nest, *mesh.Mesh) {
	t.Helper()
	stmts, err := ir.ParseStatements("A(8*i) = B(8*i)+C(16*i)+D(8*i)\nX(8*i) = Y(8*i)+C(16*i)")
	if err != nil {
		t.Fatal(err)
	}
	nest := &ir.Nest{
		Name:  "cg",
		Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: 16, Step: 1}},
		Body:  stmts,
	}
	prog := ir.NewProgram()
	prog.DeclareFromNest(nest, 4096, 8)
	store := ir.NewStore(prog)
	opts := core.DefaultOptions()
	res, err := core.Partition(prog, nest, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, nest, opts.Mesh
}

func TestGenerateBasics(t *testing.T) {
	res, nest, m := partitionSmall(t)
	var buf bytes.Buffer
	if err := Generate(&buf, res.Schedule, m, res.LineLabels, nest.Body, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "node ") {
		t.Error("no node headers emitted")
	}
	if !strings.Contains(out, "combine(") {
		t.Error("no combine lines emitted")
	}
	// Root tasks must store through named lines (labels recorded during
	// partitioning name the outputs A[...] / X[...]).
	if !strings.Contains(out, "A[") || !strings.Contains(out, "X[") {
		t.Errorf("output labels missing:\n%s", out[:min(len(out), 600)])
	}
	// Statement labels annotate tasks.
	if !strings.Contains(out, "S1 i=") || !strings.Contains(out, "S2 i=") {
		t.Error("statement labels missing")
	}
}

func TestGenerateSyncsAndSends(t *testing.T) {
	res, nest, m := partitionSmall(t)
	var buf bytes.Buffer
	if err := Generate(&buf, res.Schedule, m, res.LineLabels, nest.Body, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The schedule has cross-node syncs, so sync() waits and send lines must
	// both appear.
	if res.Schedule.SyncsAfter > 0 {
		if !strings.Contains(out, "sync(t") {
			t.Error("no sync() lines despite cross-node arcs")
		}
		if !strings.Contains(out, "send ") {
			t.Error("no send lines despite cross-node arcs")
		}
	}
}

func TestGenerateTruncation(t *testing.T) {
	res, nest, m := partitionSmall(t)
	var full, cut bytes.Buffer
	if err := Generate(&full, res.Schedule, m, res.LineLabels, nest.Body, 0); err != nil {
		t.Fatal(err)
	}
	if err := Generate(&cut, res.Schedule, m, res.LineLabels, nest.Body, 1); err != nil {
		t.Fatal(err)
	}
	if cut.Len() >= full.Len() {
		t.Error("truncated output not smaller")
	}
	if !strings.Contains(cut.String(), "more tasks") {
		t.Error("no truncation marker")
	}
}

func TestGenerateRejectsNil(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(&buf, nil, nil, nil, nil, 0); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestGenerateUnknownLinesRenderHex(t *testing.T) {
	res, nest, m := partitionSmall(t)
	var buf bytes.Buffer
	// No labels at all: every line renders as hex, nothing crashes.
	if err := Generate(&buf, res.Schedule, m, nil, nest.Body, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "line_0x") {
		t.Error("unknown lines not rendered as hex")
	}
}

func TestSummary(t *testing.T) {
	res, _, m := partitionSmall(t)
	s := Summary(res.Schedule, m)
	if !strings.Contains(s, "tasks over") || !strings.Contains(s, "syncs") {
		t.Errorf("Summary = %q", s)
	}
	if e := Summary(&core.Schedule{}, m); !strings.Contains(e, "0 tasks") {
		t.Errorf("empty Summary = %q", e)
	}
}

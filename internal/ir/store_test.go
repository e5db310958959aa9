package ir

import (
	"math"
	"testing"
)

func testProgram(t *testing.T, srcs ...string) (*Program, *Nest) {
	t.Helper()
	stmts := make([]*Statement, len(srcs))
	for i, s := range srcs {
		stmts[i] = MustParseStatement(s)
	}
	nest := &Nest{Name: "test", Loops: []Loop{{"i", 0, 16, 1}}, Body: stmts}
	p := NewProgram()
	p.DeclareFromNest(nest, 64, 8)
	return p, nest
}

func TestStoreFillDeterministic(t *testing.T) {
	p, _ := testProgram(t, "A(i) = B(i)+C(i)")
	s1, s2 := NewStore(p), NewStore(p)
	s1.FillRandom(p, 7)
	s2.FillRandom(p, 7)
	for _, name := range p.ArrayNames() {
		for i := 0; i < p.Array(name).Len; i++ {
			if s1.At(name, i) != s2.At(name, i) {
				t.Fatalf("fill not deterministic at %s[%d]", name, i)
			}
		}
	}
}

func TestStoreCloneIndependent(t *testing.T) {
	p, _ := testProgram(t, "A(i) = B(i)")
	s := NewStore(p)
	s.Set("A", 0, 1)
	c := s.Clone()
	c.Set("A", 0, 2)
	if s.At("A", 0) != 1 {
		t.Error("clone mutated original")
	}
}

func TestExecStatement(t *testing.T) {
	p, nest := testProgram(t, "A(i) = B(i)+C(i)*D(i)")
	s := NewStore(p)
	s.Set("B", 3, 2)
	s.Set("C", 3, 5)
	s.Set("D", 3, 7)
	if err := s.ExecStatement(p, nest.Body[0], map[string]int{"i": 3}); err != nil {
		t.Fatal(err)
	}
	if got := s.At("A", 3); got != 37 {
		t.Errorf("A(3) = %v, want 37", got)
	}
}

func TestExecStatementIndirect(t *testing.T) {
	p, nest := testProgram(t, "A(i) = X(Y(i))")
	s := NewStore(p)
	s.Set("Y", 2, 9)
	s.Set("X", 9, 3.5)
	if err := s.ExecStatement(p, nest.Body[0], map[string]int{"i": 2}); err != nil {
		t.Fatal(err)
	}
	if got := s.At("A", 2); got != 3.5 {
		t.Errorf("A(2) = %v, want 3.5", got)
	}
}

func TestEvalRHSLoopVariable(t *testing.T) {
	p := NewProgram()
	p.AddArray("A", 8, 8)
	s := NewStore(p)
	stmt := MustParseStatement("A(i) = i")
	v, err := s.EvalRHS(p, stmt.RHS, map[string]int{"i": 5})
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Errorf("EvalRHS(i) = %v", v)
	}
}

func TestEvalRHSDivisionByZeroIsZero(t *testing.T) {
	p, nest := testProgram(t, "A(i) = B(i)/C(i)")
	s := NewStore(p)
	s.Set("B", 0, 4)
	v, err := s.EvalRHS(p, nest.Body[0].RHS, map[string]int{"i": 0})
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 || math.IsNaN(v) {
		t.Errorf("div by zero = %v, want 0", v)
	}
}

func TestInspectorResolvesIndirect(t *testing.T) {
	p, nest := testProgram(t, "A(i) = X(Y(i))+B(i)")
	store := NewStore(p)
	for i := 0; i < 16; i++ {
		store.Set("Y", i, float64((i*5)%16))
	}
	if err := NewInspector(p, nest).Run(store); err != nil {
		t.Fatal(err)
	}
	// A program that lacks the index array cannot resolve X(Y(i)).
	q, _ := testProgram(t, "A(i) = X(i)+B(i)")
	if err := NewInspector(q, nest).Run(NewStore(q)); err == nil {
		t.Error("inspector resolved an indirect ref through an undeclared index array")
	}
}

func TestInspectorRequiresStore(t *testing.T) {
	p, nest := testProgram(t, "A(i) = X(Y(i))")
	ins := NewInspector(p, nest)
	if err := ins.Run(nil); err == nil {
		t.Error("inspector with nil store succeeded")
	}
}

func TestInspectorNoIndirectIsNoop(t *testing.T) {
	p, nest := testProgram(t, "A(i) = B(i)+C(i)")
	if err := NewInspector(p, nest).Run(NewStore(p)); err != nil {
		t.Fatal(err)
	}
}

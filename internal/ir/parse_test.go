package ir

import (
	"strings"
	"testing"
)

func TestParseSimpleStatement(t *testing.T) {
	s, err := ParseStatement("A(i) = B(i)+C(i)+D(i)+E(i)")
	if err != nil {
		t.Fatal(err)
	}
	if s.LHS.Array != "A" {
		t.Errorf("LHS array = %q", s.LHS.Array)
	}
	inputs := s.Inputs()
	if len(inputs) != 4 {
		t.Fatalf("inputs = %d, want 4", len(inputs))
	}
	want := []string{"B", "C", "D", "E"}
	for i, r := range inputs {
		if r.Array != want[i] {
			t.Errorf("input %d = %q, want %q", i, r.Array, want[i])
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	s := MustParseStatement("x = a + b*c")
	top, ok := s.RHS.(*Bin)
	if !ok || top.Op != OpAdd {
		t.Fatalf("top op = %v", s.RHS)
	}
	r, ok := top.R.(*Bin)
	if !ok || r.Op != OpMul {
		t.Fatalf("right subtree = %v", top.R)
	}
}

func TestParseParentheses(t *testing.T) {
	s := MustParseStatement("x = (a + b)*c")
	top, ok := s.RHS.(*Bin)
	if !ok || top.Op != OpMul {
		t.Fatalf("top op should be *, got %v", s.RHS)
	}
	l, ok := top.L.(*Bin)
	if !ok || l.Op != OpAdd {
		t.Fatalf("left subtree should be +, got %v", top.L)
	}
}

func TestParseSubscripts(t *testing.T) {
	s := MustParseStatement("A(2*i+1) = B(i-1) + C(j)")
	aff, ok := SubscriptOf(s.LHS)
	if !ok {
		t.Fatal("LHS subscript not affine")
	}
	if aff.Coeffs["i"] != 2 || aff.Const != 1 {
		t.Errorf("LHS affine = %+v", aff)
	}
	in := s.Inputs()
	b, _ := SubscriptOf(in[0])
	if b.Coeffs["i"] != 1 || b.Const != -1 {
		t.Errorf("B affine = %+v", b)
	}
}

func TestParseIndirect(t *testing.T) {
	s := MustParseStatement("A(i) = X(Y(i)) + B(i)")
	in := s.Inputs()
	// X(Y(i)) expands to refs X and Y.
	if len(in) != 3 {
		t.Fatalf("inputs = %v", in)
	}
	if !in[0].Indirect() {
		t.Error("X(Y(i)) not marked indirect")
	}
	if in[1].Array != "Y" || in[1].Indirect() {
		t.Errorf("inner ref = %v", in[1])
	}
	if _, ok := SubscriptOf(in[0]); ok {
		t.Error("indirect ref reported analyzable")
	}
	if _, ok := SubscriptOf(in[2]); !ok {
		t.Error("B(i) reported unanalyzable")
	}
}

func TestParseScalar(t *testing.T) {
	s := MustParseStatement("sum = sum + B(i)")
	if s.LHS.Index != nil {
		t.Error("scalar LHS has subscript")
	}
	aff, ok := SubscriptOf(s.LHS)
	if !ok || !aff.IsConst() || aff.Const != 0 {
		t.Errorf("scalar subscript = %+v, %v", aff, ok)
	}
}

func TestParseNumberLiteralAndUnaryMinus(t *testing.T) {
	s := MustParseStatement("A(i) = 0.5*B(i) + -C(i)")
	if len(s.Inputs()) != 2 {
		t.Errorf("inputs = %v", s.Inputs())
	}
	if got := s.String(); !strings.Contains(got, "0.5") {
		t.Errorf("String() = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"A(i)",
		"A(i) = ",
		"= B(i)",
		"A(i) = B(i",
		"A(i = B(i)",
		"A(i) = B(i))",
		"3 = B(i)",
		"A(i) = B(i) ? C(i)",
		"A(i) = B(i) + + ",
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q) succeeded, want error", src)
		}
	}
}

func TestParseStatements(t *testing.T) {
	list, err := ParseStatements("A(i) = B(i)+C(i); X(i) = Y(i)+C(i)\n\n Z(i) = A(i)")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("got %d statements", len(list))
	}
	if list[0].Label != "S1" || list[2].Label != "S3" {
		t.Errorf("labels = %q, %q", list[0].Label, list[2].Label)
	}
}

func TestParseStatementsPropagatesError(t *testing.T) {
	if _, err := ParseStatements("A(i) = B(i); garbage ("); err == nil {
		t.Error("want error from bad second statement")
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"A(i) = B(i)+C(i)*D(i)",
		"x = a*(b+c)+d*(e+f+g)",
		"A(i) = X(Y(i))+B(i-1)",
		"A(2*i+1) = B(i)/C(i)",
	}
	for _, src := range srcs {
		s := MustParseStatement(src)
		re, err := ParseStatement(s.String())
		if err != nil {
			t.Errorf("re-parse of %q failed: %v", s.String(), err)
			continue
		}
		if re.String() != s.String() {
			t.Errorf("round trip: %q -> %q", s.String(), re.String())
		}
	}
}

func TestOpCountAndMix(t *testing.T) {
	s := MustParseStatement("A(i) = B(i)+C(i)*D(i)/E(i)")
	if got := s.OpCount(1); got != 3 {
		t.Errorf("OpCount(1) = %d, want 3", got)
	}
	if got := s.OpCount(10); got != 12 {
		t.Errorf("OpCount(10) = %d, want 12 (division weighted)", got)
	}
	mix := s.OpMix()
	if mix[ClassAddSub] != 1 || mix[ClassMulDiv] != 2 {
		t.Errorf("OpMix = %v", mix)
	}
}

func TestOpClassStrings(t *testing.T) {
	if ClassAddSub.String() != "add/sub" || ClassMulDiv.String() != "mul/div" || ClassOther.String() != "others" {
		t.Error("OpClass strings wrong")
	}
}

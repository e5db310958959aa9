package ir

import (
	"testing"
	"testing/quick"
)

func TestAddArrayPageAligned(t *testing.T) {
	p := NewProgram()
	a := p.AddArray("A", 1000, 8)
	b := p.AddArray("B", 1000, 8)
	if a.Base%4096 != 0 || b.Base%4096 != 0 {
		t.Errorf("bases not page aligned: %#x %#x", a.Base, b.Base)
	}
	if b.Base < a.Base+uint64(a.Len)*a.ElemSize {
		t.Error("arrays overlap")
	}
}

func TestAddrOfIndexWraps(t *testing.T) {
	a := &Array{Name: "A", Base: 0x1000, ElemSize: 8, Len: 10}
	if got := a.AddrOfIndex(3); got != 0x1000+24 {
		t.Errorf("AddrOfIndex(3) = %#x", got)
	}
	if a.AddrOfIndex(13) != a.AddrOfIndex(3) {
		t.Error("index 13 should wrap to 3")
	}
	if a.AddrOfIndex(-7) != a.AddrOfIndex(3) {
		t.Error("index -7 should wrap to 3")
	}
}

func TestLoopTrips(t *testing.T) {
	cases := []struct {
		l    Loop
		want int
	}{
		{Loop{"i", 0, 10, 1}, 10},
		{Loop{"i", 0, 10, 3}, 4},
		{Loop{"i", 5, 5, 1}, 0},
		{Loop{"i", 0, 10, 0}, 0},
	}
	for _, c := range cases {
		if got := c.l.Trips(); got != c.want {
			t.Errorf("Trips(%+v) = %d, want %d", c.l, got, c.want)
		}
	}
}

func TestForEachIterationOrder(t *testing.T) {
	n := &Nest{Loops: []Loop{{"i", 0, 2, 1}, {"j", 0, 3, 1}}}
	var got [][2]int
	n.ForEachIteration(func(env map[string]int) bool {
		got = append(got, [2]int{env["i"], env["j"]})
		return true
	})
	want := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if len(got) != len(want) {
		t.Fatalf("iterations = %v", got)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("iteration %d = %v, want %v", k, got[k], want[k])
		}
	}
	if n.Iterations() != 6 {
		t.Errorf("Iterations = %d", n.Iterations())
	}
}

func TestForEachIterationEarlyStop(t *testing.T) {
	n := &Nest{Loops: []Loop{{"i", 0, 100, 1}}}
	count := 0
	n.ForEachIteration(func(env map[string]int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
}

func TestIterationEnvMatchesWalk(t *testing.T) {
	n := &Nest{Loops: []Loop{{"i", 2, 8, 2}, {"j", 0, 3, 1}}}
	k := 0
	n.ForEachIteration(func(env map[string]int) bool {
		got := n.IterationEnv(k)
		if got["i"] != env["i"] || got["j"] != env["j"] {
			t.Errorf("IterationEnv(%d) = %v, walk = %v", k, got, env)
		}
		k++
		return true
	})
}

func TestDeclareFromNest(t *testing.T) {
	p := NewProgram()
	nest := &Nest{
		Loops: []Loop{{"i", 0, 8, 1}},
		Body:  []*Statement{MustParseStatement("A(i) = B(i)+X(Y(i))+s")},
	}
	p.DeclareFromNest(nest, 128, 8)
	for _, name := range []string{"A", "B", "X", "Y", "s"} {
		if p.Array(name) == nil {
			t.Errorf("array %q not declared", name)
		}
	}
	if p.Array("i") != nil {
		t.Error("loop variable declared as array")
	}
	if got := len(p.ArrayNames()); got != 5 {
		t.Errorf("declared %d arrays: %v", got, p.ArrayNames())
	}
}

func TestDeclareFromNestDeterministicBases(t *testing.T) {
	build := func() map[string]uint64 {
		p := NewProgram()
		nest := &Nest{
			Loops: []Loop{{"i", 0, 8, 1}},
			Body:  []*Statement{MustParseStatement("A(i) = B(i)+C(i)+D(i)+E(i)")},
		}
		p.DeclareFromNest(nest, 64, 8)
		out := make(map[string]uint64)
		for name, a := range p.Arrays {
			out[name] = a.Base
		}
		return out
	}
	a, b := build(), build()
	for name, base := range a {
		if b[name] != base {
			t.Errorf("array %q base differs across builds: %#x vs %#x", name, base, b[name])
		}
	}
}

func TestAddrOfAffine(t *testing.T) {
	p := NewProgram()
	p.AddArray("B", 100, 8)
	ref := MustParseStatement("x = B(2*i+1)").Inputs()[0]
	addr, err := p.AddrOf(ref, map[string]int{"i": 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Array("B").AddrOfIndex(7); addr != want {
		t.Errorf("AddrOf = %#x, want %#x", addr, want)
	}
}

func TestAddrOfIndirect(t *testing.T) {
	p := NewProgram()
	p.AddArray("X", 100, 8)
	p.AddArray("Y", 100, 8)
	store := NewStore(p)
	store.Set("Y", 3, 42)
	ref := MustParseStatement("x = X(Y(i))").Inputs()[0]
	addr, err := p.AddrOf(ref, map[string]int{"i": 3}, store)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Array("X").AddrOfIndex(42); addr != want {
		t.Errorf("AddrOf = %#x, want %#x", addr, want)
	}
	// Without a store, indirect resolution must fail.
	if _, err := p.AddrOf(ref, map[string]int{"i": 3}, nil); err == nil {
		t.Error("indirect AddrOf without store succeeded")
	}
}

// TestCompiledSubscriptReuse: one compiled subscript resolves every
// iteration of a nested indirect reference, reads the store at each call
// (never at compile time), and keeps IndexOf's failures.
func TestCompiledSubscriptReuse(t *testing.T) {
	p := NewProgram()
	p.AddArray("X", 100, 8)
	p.AddArray("Y", 100, 8)
	p.AddArray("Z", 100, 8)
	store := NewStore(p)
	ref := MustParseStatement("x = X(Y(2*i)+Z(Y(i+1))-i)").Inputs()[0]
	sub := p.CompileSubscript(ref)
	if sub.Analyzable() {
		t.Fatal("indirect subscript compiled as affine")
	}
	for i := 0; i < 10; i++ {
		store.Set("Y", 2*i, float64(3*i))
		store.Set("Y", i+1, float64(i+5))
		store.Set("Z", i+5, float64(7*i))
		env := map[string]int{"i": i}
		got, err := sub.Index(env, store)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.IndexOf(ref, env, store)
		if err != nil {
			t.Fatal(err)
		}
		if y2i := int(store.At("Y", 2*i)); got != want || got != y2i+int(store.At("Z", int(store.At("Y", i+1))))-i {
			t.Errorf("i=%d: compiled %d, IndexOf %d", i, got, want)
		}
	}
	if _, err := sub.Index(map[string]int{"i": 0}, nil); err == nil {
		t.Error("indirect subscript resolved without a store")
	}
	bad := MustParseStatement("x = X(Q(i))").Inputs()[0]
	badSub := p.CompileSubscript(bad)
	if _, err := badSub.Index(map[string]int{"i": 0}, store); err == nil {
		t.Error("unknown inner array accepted")
	}
	aff := p.CompileSubscript(MustParseStatement("x = X(2*i+1)").Inputs()[0])
	if idx, err := aff.Index(map[string]int{"i": 4}, nil); !aff.Analyzable() || err != nil || idx != 9 {
		t.Errorf("affine subscript: analyzable %v, index %d, %v", aff.Analyzable(), idx, err)
	}
}

func TestAddrOfUnknownArray(t *testing.T) {
	p := NewProgram()
	ref := MustParseStatement("x = Q(i)").Inputs()[0]
	if _, err := p.AddrOf(ref, map[string]int{"i": 0}, nil); err == nil {
		t.Error("unknown array accepted")
	}
}

func TestAffineEvalProperty(t *testing.T) {
	// AnalyzeAffine(parse(expr)).Eval must agree with direct evaluation for
	// random affine expressions a*i + b*j + c.
	if err := quick.Check(func(a, b, c int8, i, j int8) bool {
		s := MustParseStatement("X(" + itoa(int(a)) + "*i+" + itoa(int(b)) + "*j+" + itoa(int(c)) + ") = q")
		aff, ok := SubscriptOf(s.LHS)
		if !ok {
			return false
		}
		env := map[string]int{"i": int(i), "j": int(j)}
		return aff.Eval(env) == int(a)*int(i)+int(b)*int(j)+int(c)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// itoa formats possibly-negative ints into the statement language, which has
// no unary minus inside subscripts at arbitrary positions; wrap negatives as
// (0-k).
func itoa(v int) string {
	if v < 0 {
		return "(0-" + itoaPos(-v) + ")"
	}
	return itoaPos(v)
}

func itoaPos(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestAnalyzeAffineRejectsNonlinear(t *testing.T) {
	for _, src := range []string{"X(i*j) = q", "X(i/2) = q", "X(Y(i)) = q"} {
		s := MustParseStatement(src)
		if _, ok := SubscriptOf(s.LHS); ok {
			t.Errorf("%s reported affine", src)
		}
	}
}

func TestAnalyzeAffineConstMul(t *testing.T) {
	s := MustParseStatement("X(i*3) = q") // variable on the left of *
	aff, ok := SubscriptOf(s.LHS)
	if !ok || aff.Coeffs["i"] != 3 {
		t.Errorf("affine = %+v, %v", aff, ok)
	}
}

func TestAffineString(t *testing.T) {
	aff := Affine{Coeffs: map[string]int{"i": 2}, Const: 1}
	if got := aff.String(); got != "2*i+1" {
		t.Errorf("String = %q", got)
	}
	if got := (Affine{Const: 5}).String(); got != "5" {
		t.Errorf("const String = %q", got)
	}
}

package ir

import (
	"math/rand"
	"testing"
)

// randAffineExpr builds a random affine subscript expression over vars:
// sums, differences and constant multiples (either side) of variables and
// literals, nested up to depth. Terms often cancel or scale to zero.
func randAffineExpr(rng *rand.Rand, vars []string, depth int) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return &Num{Val: float64(rng.Intn(41) - 20)}
		}
		return &Ref{Array: vars[rng.Intn(len(vars))]}
	}
	switch rng.Intn(3) {
	case 0:
		return &Bin{Op: OpAdd, L: randAffineExpr(rng, vars, depth-1), R: randAffineExpr(rng, vars, depth-1)}
	case 1:
		return &Bin{Op: OpSub, L: randAffineExpr(rng, vars, depth-1), R: randAffineExpr(rng, vars, depth-1)}
	}
	k := &Num{Val: float64(rng.Intn(7) - 3)} // includes 0: the term vanishes
	if rng.Intn(2) == 0 {
		return &Bin{Op: OpMul, L: k, R: randAffineExpr(rng, vars, depth-1)}
	}
	return &Bin{Op: OpMul, L: randAffineExpr(rng, vars, depth-1), R: k}
}

// TestSubscriptIndexMatchesAffineEval: a compiled affine subscript's term
// slice resolves every instance to Affine.Eval's index, on seeded random
// subscripts (zero coefficients and cancelling terms among them) and
// scalars, under environments that bind only some of the variables: an
// unbound variable reads as 0 in both.
func TestSubscriptIndexMatchesAffineEval(t *testing.T) {
	vars := []string{"i", "j", "k", "n"}
	rng := rand.New(rand.NewSource(24))
	p := NewProgram()
	p.AddArray("X", 1<<10, 8)
	zeroed, scalars := 0, 0
	for trial := 0; trial < 2000; trial++ {
		ref := &Ref{Array: "X"}
		if rng.Intn(10) != 0 {
			ref.Index = randAffineExpr(rng, vars, 4)
		} else {
			scalars++
		}
		aff, ok := SubscriptOf(ref)
		if !ok {
			t.Fatalf("trial %d: %s not affine", trial, ref)
		}
		if len(aff.Coeffs) < len(vars) {
			zeroed++
		}
		sub := p.CompileSubscript(ref)
		if !sub.Analyzable() {
			t.Fatalf("trial %d: affine %s compiled as indirect", trial, ref)
		}
		for e := 0; e < 8; e++ {
			env := map[string]int{}
			for _, v := range vars {
				if rng.Intn(4) != 0 { // the rest stay unbound
					env[v] = rng.Intn(2001) - 1000
				}
			}
			got, err := sub.Index(env, nil)
			if err != nil {
				t.Fatalf("trial %d: Index(%v) of %s: %v", trial, env, ref, err)
			}
			if want := aff.Eval(env); got != want {
				t.Fatalf("trial %d: Index(%v) of %s = %d, Affine.Eval (%s) = %d", trial, env, ref, got, aff, want)
			}
		}
	}
	if zeroed == 0 || scalars == 0 {
		t.Errorf("generator missed a case: %d subscripts without some variable, %d scalars", zeroed, scalars)
	}
}

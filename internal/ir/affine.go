package ir

import "fmt"

// Affine is an affine function of loop variables: sum(Coeffs[v] * v) + Const.
// Affine subscripts are the compile-time analyzable case: the compiler can
// compute the accessed element, hence its address and on-chip location, for
// every iteration.
type Affine struct {
	Coeffs map[string]int
	Const  int
}

// Eval evaluates the affine function under the iteration environment env.
// Loop variables missing from env evaluate as zero.
func (a Affine) Eval(env map[string]int) int {
	v := a.Const
	for name, c := range a.Coeffs {
		v += c * env[name]
	}
	return v
}

// IsConst reports whether the function has no variable terms.
func (a Affine) IsConst() bool { return len(a.Coeffs) == 0 }

// String formats the affine function for diagnostics.
func (a Affine) String() string {
	s := ""
	for name, c := range a.Coeffs {
		if s != "" {
			s += "+"
		}
		s += fmt.Sprintf("%d*%s", c, name)
	}
	if s == "" || a.Const != 0 {
		if s != "" {
			s += "+"
		}
		s += fmt.Sprintf("%d", a.Const)
	}
	return s
}

// AnalyzeAffine tries to interpret e as an affine function of loop variables.
// It fails (ok == false) when the expression contains array references
// (indirect accesses), products of variables, or division — the cases the
// paper's compiler cannot statically disambiguate.
func AnalyzeAffine(e Expr) (Affine, bool) {
	switch n := e.(type) {
	case *Num:
		iv := int(n.Val)
		if float64(iv) != n.Val {
			return Affine{}, false
		}
		return Affine{Const: iv}, true
	case *Ref:
		if n.Index == nil {
			// A bare identifier inside a subscript is a loop variable use.
			return Affine{Coeffs: map[string]int{n.Array: 1}}, true
		}
		return Affine{}, false // indirect array access
	case *Bin:
		l, lok := AnalyzeAffine(n.L)
		r, rok := AnalyzeAffine(n.R)
		if !lok || !rok {
			return Affine{}, false
		}
		switch n.Op {
		case OpAdd:
			return combine(l, r, 1), true
		case OpSub:
			return combine(l, r, -1), true
		case OpMul:
			if l.IsConst() {
				return scale(r, l.Const), true
			}
			if r.IsConst() {
				return scale(l, r.Const), true
			}
			return Affine{}, false
		default:
			return Affine{}, false
		}
	}
	return Affine{}, false
}

func combine(l, r Affine, sign int) Affine {
	out := Affine{Coeffs: map[string]int{}, Const: l.Const + sign*r.Const}
	for k, v := range l.Coeffs {
		out.Coeffs[k] += v
	}
	for k, v := range r.Coeffs {
		out.Coeffs[k] += sign * v
	}
	for k, v := range out.Coeffs {
		if v == 0 {
			delete(out.Coeffs, k)
		}
	}
	return out
}

func scale(a Affine, k int) Affine {
	out := Affine{Coeffs: map[string]int{}, Const: a.Const * k}
	for name, c := range a.Coeffs {
		if c*k != 0 {
			out.Coeffs[name] = c * k
		}
	}
	return out
}

// SubscriptOf returns the affine form of ref's subscript. Scalars (nil
// subscript) are constant zero. ok is false for indirect/nonlinear
// subscripts.
func SubscriptOf(ref *Ref) (Affine, bool) {
	if ref.Index == nil {
		return Affine{Const: 0}, true
	}
	return AnalyzeAffine(ref.Index)
}

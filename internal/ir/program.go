package ir

import (
	"fmt"
	"sort"
)

// Array describes one program array: a named, contiguous region of the
// virtual address space. Element size is in bytes.
type Array struct {
	Name     string
	Base     uint64
	ElemSize uint64
	Len      int
}

// AddrOfIndex returns the virtual address of element idx. Indices are wrapped
// modulo the array length; the synthetic workloads index with
// modulo-wrapping, the way many benchmark generators keep accesses in range.
func (a *Array) AddrOfIndex(idx int) uint64 {
	n := a.Len
	if n <= 0 {
		n = 1
	}
	w := ((idx % n) + n) % n
	return a.Base + uint64(w)*a.ElemSize
}

// Loop is one loop of a nest: for Var := Lower; Var < Upper; Var += Step.
type Loop struct {
	Var   string
	Lower int
	Upper int
	Step  int
}

// Trips returns the number of iterations of the loop.
func (l Loop) Trips() int {
	if l.Step <= 0 || l.Upper <= l.Lower {
		return 0
	}
	return (l.Upper - l.Lower + l.Step - 1) / l.Step
}

// Nest is a loop nest: one or more nested loops around a straight-line body
// of statements. By convention an outer loop over variable "t" is the
// application's timing loop (the loop the inspector–executor paradigm of
// Section 4.5 splits); statements never subscript with t, so successive t
// iterations re-sweep the same data.
type Nest struct {
	Name  string
	Loops []Loop
	Body  []*Statement
}

// Iterations returns the product of the trip counts of the explicit loops.
func (n *Nest) Iterations() int {
	total := 1
	for _, l := range n.Loops {
		total *= l.Trips()
	}
	return total
}

// StatementInstances returns Iterations() * len(Body), the number of
// statement instances one sweep of the nest executes.
func (n *Nest) StatementInstances() int { return n.Iterations() * len(n.Body) }

// ForEachIteration invokes fn with the iteration environment of every
// iteration in lexicographic (execution) order. fn returning false stops the
// walk early. The env map is reused between calls; callers must not retain
// it.
func (n *Nest) ForEachIteration(fn func(env map[string]int) bool) {
	env := make(map[string]int, len(n.Loops))
	var walk func(depth int) bool
	walk = func(depth int) bool {
		if depth == len(n.Loops) {
			return fn(env)
		}
		l := n.Loops[depth]
		for v := l.Lower; v < l.Upper; v += l.Step {
			env[l.Var] = v
			if !walk(depth + 1) {
				return false
			}
		}
		return true
	}
	walk(0)
}

// IterationEnv returns the environment of the k-th iteration (0-based, in
// execution order).
func (n *Nest) IterationEnv(k int) map[string]int {
	return n.IterationEnvInto(nil, k)
}

// IterationEnvInto fills env with the k-th iteration's variable bindings and
// returns it, allocating only when env is nil. Every loop variable is
// overwritten, so the same map can be reused across iterations (the
// partitioner's instance loop does).
func (n *Nest) IterationEnvInto(env map[string]int, k int) map[string]int {
	if env == nil {
		env = make(map[string]int, len(n.Loops))
	}
	// Decompose k in mixed radix, innermost loop varying fastest.
	for i := len(n.Loops) - 1; i >= 0; i-- {
		t := n.Loops[i].Trips()
		if t == 0 {
			env[n.Loops[i].Var] = n.Loops[i].Lower
			continue
		}
		env[n.Loops[i].Var] = n.Loops[i].Lower + (k%t)*n.Loops[i].Step
		k /= t
	}
	return env
}

// Program is a compilation unit: a symbol table of arrays plus an ordered
// list of loop nests.
type Program struct {
	Arrays map[string]*Array
	Nests  []*Nest
}

// NewProgram creates an empty program.
func NewProgram() *Program {
	return &Program{Arrays: make(map[string]*Array)}
}

// AddArray declares an array of n elements with the given element size,
// assigning it a base address beyond every existing array (page aligned, so
// distinct arrays never share a page).
func (p *Program) AddArray(name string, n int, elemSize uint64) *Array {
	const pageBytes = 4096
	var top uint64
	for _, a := range p.Arrays {
		end := a.Base + uint64(a.Len)*a.ElemSize
		if end > top {
			top = end
		}
	}
	base := (top + pageBytes - 1) / pageBytes * pageBytes
	arr := &Array{Name: name, Base: base, ElemSize: elemSize, Len: n}
	p.Arrays[name] = arr
	return arr
}

// Array returns the named array, or nil.
func (p *Program) Array(name string) *Array { return p.Arrays[name] }

// ArrayNames returns the declared array names in sorted order.
func (p *Program) ArrayNames() []string {
	names := make([]string, 0, len(p.Arrays))
	for n := range p.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DeclareFromNest declares, with the given default length and element size,
// every array referenced by the nest that is not yet in the symbol table.
// Loop variables (bare identifiers appearing only inside subscripts) are not
// declared.
func (p *Program) DeclareFromNest(n *Nest, defaultLen int, elemSize uint64) {
	loopVars := make(map[string]bool, len(n.Loops))
	for _, l := range n.Loops {
		loopVars[l.Var] = true
	}
	loopVars["t"] = true
	var names []string
	seen := make(map[string]bool)
	for _, s := range n.Body {
		for _, r := range s.AllRefs() {
			if r.Index == nil && loopVars[r.Array] {
				continue
			}
			if !seen[r.Array] {
				seen[r.Array] = true
				names = append(names, r.Array)
			}
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if p.Arrays[name] == nil {
			p.AddArray(name, defaultLen, elemSize)
		}
	}
}

// AddrOf resolves the virtual address accessed by ref under iteration
// environment env. Indirect subscripts are resolved through store (the
// runtime values, as the inspector would observe them); store may be nil
// only for analyzable refs.
func (p *Program) AddrOf(ref *Ref, env map[string]int, store *Store) (uint64, error) {
	arr := p.Arrays[ref.Array]
	if arr == nil {
		return 0, fmt.Errorf("ir: unknown array %q", ref.Array)
	}
	idx, err := p.IndexOf(ref, env, store)
	if err != nil {
		return 0, err
	}
	return arr.AddrOfIndex(idx), nil
}

// IndexOf resolves the element index accessed by ref under env, consulting
// store for indirect subscripts. It compiles the subscript on every call;
// callers that resolve one reference repeatedly cache CompileSubscript's
// result instead.
func (p *Program) IndexOf(ref *Ref, env map[string]int, store *Store) (int, error) {
	sub := p.CompileSubscript(ref)
	return sub.Index(env, store)
}

// Subscript is a reference's subscript compiled once: its affine form as a
// slice of (variable, coefficient) terms plus a constant when the subscript
// is analyzable, otherwise an evaluator over the indirect expression whose
// inner subscripts are compiled too. A Subscript never changes after
// compilation; callers cache one per *Ref, so resolving an instance costs no
// affine analysis and no walk over a coefficient map.
type Subscript struct {
	ref      *Ref
	terms    []term
	constant int
	affine   bool
	eval     func(env map[string]int, store *Store) (int, error)
}

// term is one variable term of an affine subscript.
type term struct {
	name  string
	coeff int
}

// CompileSubscript compiles ref's subscript against p's arrays. Scalars (nil
// subscript) compile to constant zero.
func (p *Program) CompileSubscript(ref *Ref) Subscript {
	s := Subscript{ref: ref}
	aff, ok := SubscriptOf(ref)
	if !ok {
		s.eval = p.compileIndex(ref.Index)
		return s
	}
	s.affine, s.constant = true, aff.Const
	for name, c := range aff.Coeffs {
		if c != 0 {
			s.terms = append(s.terms, term{name, c})
		}
	}
	sort.Slice(s.terms, func(i, j int) bool { return s.terms[i].name < s.terms[j].name })
	return s
}

// Analyzable reports whether the subscript is affine, i.e. whether the
// reference counts toward Table 1's compile-time analyzable fraction.
func (s *Subscript) Analyzable() bool { return s.affine }

// Index resolves the element index under env, consulting store for indirect
// subscripts.
func (s *Subscript) Index(env map[string]int, store *Store) (int, error) {
	if s.affine {
		// Integer addition is associative and commutative even when it
		// wraps, so this is exactly Affine.Eval's sum.
		v := s.constant
		for _, t := range s.terms {
			v += t.coeff * env[t.name]
		}
		return v, nil
	}
	if store == nil {
		return 0, fmt.Errorf("ir: indirect reference %s needs runtime values", s.ref)
	}
	return s.eval(env, store)
}

// compileIndex compiles an indirect subscript expression into its evaluator:
// literals and loop variables read directly, array elements through the
// store at their own compiled subscript, binary operators on integers.
func (p *Program) compileIndex(e Expr) func(env map[string]int, store *Store) (int, error) {
	switch n := e.(type) {
	case *Num:
		v := int(n.Val)
		return func(map[string]int, *Store) (int, error) { return v, nil }
	case *Ref:
		name := n.Array
		if n.Index == nil {
			return func(env map[string]int, _ *Store) (int, error) { return env[name], nil } // loop variable
		}
		inner := p.CompileSubscript(n)
		known := p.Arrays[name] != nil
		return func(env map[string]int, store *Store) (int, error) {
			idx, err := inner.Index(env, store)
			if err != nil {
				return 0, err
			}
			if !known {
				return 0, fmt.Errorf("ir: unknown array %q", name)
			}
			return int(store.At(name, idx)), nil
		}
	case *Bin:
		l, r, op := p.compileIndex(n.L), p.compileIndex(n.R), n.Op
		return func(env map[string]int, store *Store) (int, error) {
			lv, err := l(env, store)
			if err != nil {
				return 0, err
			}
			rv, err := r(env, store)
			if err != nil {
				return 0, err
			}
			switch op {
			case OpAdd:
				return lv + rv, nil
			case OpSub:
				return lv - rv, nil
			case OpMul:
				return lv * rv, nil
			case OpDiv:
				if rv == 0 {
					return 0, fmt.Errorf("ir: division by zero in subscript")
				}
				return lv / rv, nil
			case OpMod:
				if rv == 0 {
					return 0, fmt.Errorf("ir: modulo by zero in subscript")
				}
				return lv % rv, nil
			case OpAnd:
				return lv & rv, nil
			case OpOr:
				return lv | rv, nil
			}
			return 0, fmt.Errorf("ir: unsupported subscript expression")
		}
	}
	return func(map[string]int, *Store) (int, error) {
		return 0, fmt.Errorf("ir: unsupported subscript expression")
	}
}

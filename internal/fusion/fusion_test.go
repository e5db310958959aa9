package fusion

import (
	"math/rand"
	"strings"
	"testing"

	"dmacp/internal/ir"
)

// buildProg parses one nest per source string into a fresh program; the
// first nest is the fusion target.
func buildProg(t *testing.T, sources ...string) (*ir.Program, []*ir.Nest) {
	t.Helper()
	prog := ir.NewProgram()
	var nests []*ir.Nest
	for i, src := range sources {
		body, err := ir.ParseStatements(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		nest := &ir.Nest{
			Name:  "n",
			Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: 16, Step: 1}},
			Body:  body,
		}
		if i > 0 {
			nest.Name = "extra"
		}
		prog.DeclareFromNest(nest, 1<<10, 8)
		prog.Nests = append(prog.Nests, nest)
		nests = append(nests, nest)
	}
	return prog, nests
}

func coarsenFirst(t *testing.T, sources ...string) *Result {
	t.Helper()
	prog, nests := buildProg(t, sources...)
	return Coarsen(prog, nests[0], Limits{})
}

func TestCoarsenWorkloadShapes(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		merged int
		want   string // substring of a fused statement
	}{
		{
			name: "radix-count",
			src: `
DIG(8*i) = KEY(8*i) % 256
CNT(8*i) = CNT(8*i) + DIG(8*i) & MASKR(8*i)`,
			merged: 1,
			want:   "KEY(8*i)%256",
		},
		{
			name: "ocean-workarray",
			src: `
WRK(8*i) = W1*(PSI(8*i+8)+PSI(8*i-8)+PSI(8*i+1024)+PSI(8*i-1024))
PSIN(8*i) = W0*PSI(8*i) + WRK(8*i) + F(8*i)`,
			merged: 1,
			want:   "W1*(PSI(8*i+8)+PSI(8*i-8)+PSI(8*i+1024)+PSI(8*i-1024))",
		},
		{
			name: "minimd-integrate",
			src: `
VXN(8*i) = VX(8*i) + FX(8*i)*DT
XPN(8*i) = XP(8*i) + VXN(8*i)*DT`,
			merged: 1,
			want:   "(VX(8*i)+FX(8*i)*DT)*DT",
		},
		{
			name: "fft-two-temp",
			src: `
TR(8*i) = WR(8*i)*YR(16*i+8) - WI(8*i)*YI(16*i+8)
XR(16*i) = XR(16*i) + TR(8*i)
TI(8*i) = WR(8*i)*YI(16*i+8) + WI(8*i)*YR(16*i+8)
XI(16*i) = XI(16*i) + TI(8*i)`,
			merged: 2,
			want:   "WR(8*i)*YR(16*i+8)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := coarsenFirst(t, tc.src)
			if res.Merged != tc.merged {
				t.Fatalf("merged %d statements, want %d", res.Merged, tc.merged)
			}
			var rendered []string
			for _, s := range res.Nest.Body {
				rendered = append(rendered, s.String())
			}
			all := strings.Join(rendered, "\n")
			if !strings.Contains(all, tc.want) {
				t.Errorf("fused body missing %q:\n%s", tc.want, all)
			}
			origLen := res.Map.Originals()
			if origLen != len(res.Nest.Body)+res.Merged {
				t.Errorf("map covers %d originals, want %d", origLen, len(res.Nest.Body)+res.Merged)
			}
		})
	}
}

func TestCoarsenBailsOut(t *testing.T) {
	cases := []struct {
		name    string
		sources []string
	}{
		{"producer-accumulates", []string{`
T(8*i) = T(8*i) + A(8*i)
B(8*i) = T(8*i)*C(8*i)`}},
		{"no-consumer", []string{`
T(8*i) = A(8*i)*B(8*i)
C(8*i) = A(8*i) + B(8*i)`}},
		{"second-consumer-in-body", []string{`
T(8*i) = A(8*i)*B(8*i)
C(8*i) = T(8*i) + B(8*i)
D(8*i) = T(8*i) - A(8*i)`}},
		{"cross-nest-consumer", []string{`
T(8*i) = A(8*i)*B(8*i)
C(8*i) = T(8*i) + B(8*i)`, `
E(8*i) = T(8*i) + A(8*i)`}},
		{"indirect-store", []string{`
T(IX(8*i)) = A(8*i)*B(8*i)
C(8*i) = T(8*i) + B(8*i)`}},
		{"subscript-mismatch", []string{`
T(8*i) = A(8*i)*B(8*i)
C(8*i) = T(8*i+8) + B(8*i)`}},
		{"consumer-overwrites-temp", []string{`
T(8*i) = A(8*i)*B(8*i)
T(8*i) = T(8*i) + B(8*i)`}},
		{"temp-in-subscript-position", []string{`
T(8*i) = A(8*i) + B(8*i)
C(8*i) = D(T(8*i)) + B(8*i)`}},
		// Raytrace's intersection test reads TD twice: substitution would
		// clone the 6-leaf producer and re-fetch every input, so the
		// multi-read consumer must bail (movement would increase).
		{"consumer-reads-temp-twice", []string{`
TD(8*i) = OX(OBJ(8*i))*DX(8*i) + OY(OBJ(8*i))*DY(8*i) + OZ(OBJ(8*i))*DZ(8*i)
HIT(8*i) = TD(8*i)*TD(8*i) - CC(OBJ(8*i))/RAD2(8*i)`}},
		{"may-dep-on-pair", []string{`
T(8*i) = A(IX(8*i))*B(8*i)
C(8*i) = T(8*i) + B(8*i)
A(IY(8*i)) = C(8*i) + B(8*i)`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := coarsenFirst(t, tc.sources...)
			if res.Merged != 0 {
				t.Fatalf("fused %d statements, want bail-out:\n%s", res.Merged, res.Nest.Body)
			}
			for f, g := range res.Map.Groups {
				if len(g) != 1 || g[0] != f {
					t.Errorf("identity result maps statement %d to group %v", f, g)
				}
			}
			prog, nests := buildProg(t, tc.sources...)
			if got := Coarsen(prog, nests[0], Limits{}); got.Nest != nests[0] {
				t.Error("identity result should return the input nest pointer")
			}
		})
	}
}

// TestCoarsenCapacityBound pins the L1 bound: a merge whose fused leaf
// footprint exceeds the model is rejected even though it is legal.
func TestCoarsenCapacityBound(t *testing.T) {
	src := `
T(8*i) = A(8*i) + B(8*i) + C(8*i)
D(8*i) = T(8*i) + E(8*i)`
	prog, nests := buildProg(t, src)
	if res := Coarsen(prog, nests[0], Limits{}); res.Merged != 1 {
		t.Fatalf("default limits rejected a legal merge (merged=%d)", res.Merged)
	}
	// Fused statement has 4 leaves + 1 store = 5 lines; a 4-line L1 bails.
	tight := Limits{L1Bytes: 4 * 64, LineBytes: 64}
	if res := Coarsen(prog, nests[0], tight); res.Merged != 0 {
		t.Fatalf("tight capacity still fused %d statements", res.Merged)
	}
}

// TestCoarsenPreservesSemantics executes original and fused bodies from
// identical stores and compares every surviving array element.
func TestCoarsenPreservesSemantics(t *testing.T) {
	sources := []string{`
DIG(8*i) = KEY(8*i) % 256
CNT(8*i) = CNT(8*i) + DIG(8*i) & MASKR(8*i)
TR(8*i) = WR(8*i)*YR(16*i+8) - WI(8*i)*YI(16*i+8)
XR(16*i) = XR(16*i) + TR(8*i)`}
	prog, nests := buildProg(t, sources...)
	nest := nests[0]
	res := Coarsen(prog, nest, Limits{})
	if res.Merged != 2 {
		t.Fatalf("merged %d, want 2", res.Merged)
	}

	base := ir.NewStore(prog)
	base.FillRandom(prog, 42)
	ref := base.Clone()
	fused := base.Clone()

	run := func(st *ir.Store, n *ir.Nest) {
		n.ForEachIteration(func(env map[string]int) bool {
			for _, s := range n.Body {
				if err := st.ExecStatement(prog, s, env); err != nil {
					t.Fatalf("exec %s: %v", s, err)
				}
			}
			return true
		})
	}
	run(ref, nest)
	run(fused, res.Nest)

	// Arrays written only by eliminated producers are dead in the fused
	// program; every other array must match element-for-element.
	dead := map[string]bool{"DIG": true, "TR": true}
	for _, name := range prog.ArrayNames() {
		if dead[name] {
			continue
		}
		arr := prog.Array(name)
		for i := 0; i < arr.Len; i++ {
			if ref.At(name, i) != fused.At(name, i) {
				t.Fatalf("%s[%d]: ref %v fused %v", name, i, ref.At(name, i), fused.At(name, i))
			}
		}
	}
}

// TestFusionMapRoundTrip is the seeded round-trip gate: over random small
// programs, expanding every coarsened group must reproduce the original
// statement index sequence exactly, in order, with FusedOf agreeing.
func TestFusionMapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	arrays := []string{"A", "B", "C", "D", "E", "T", "U"}
	for trial := 0; trial < 200; trial++ {
		var lines []string
		stmts := 2 + rng.Intn(5)
		for s := 0; s < stmts; s++ {
			lhs := arrays[rng.Intn(len(arrays))]
			a := arrays[rng.Intn(len(arrays))]
			b := arrays[rng.Intn(len(arrays))]
			ops := []string{"+", "-", "*"}
			op := ops[rng.Intn(len(ops))]
			lines = append(lines, lhs+"(8*i) = "+a+"(8*i) "+op+" "+b+"(8*i)")
		}
		src := strings.Join(lines, "\n")
		prog, nests := buildProg(t, src)
		res := Coarsen(prog, nests[0], Limits{})

		if len(res.Map.Groups) != len(res.Nest.Body) {
			t.Fatalf("trial %d: %d groups for %d coarsened statements", trial, len(res.Map.Groups), len(res.Nest.Body))
		}
		var expanded []int
		for f, g := range res.Map.Groups {
			if len(g) == 0 {
				t.Fatalf("trial %d: empty group %d\n%s", trial, f, src)
			}
			expanded = append(expanded, g...)
		}
		if len(expanded) != len(nests[0].Body) {
			t.Fatalf("trial %d: expansion covers %d of %d statements\n%s",
				trial, len(expanded), len(nests[0].Body), src)
		}
		seen := make([]bool, len(expanded))
		for _, o := range expanded {
			if o < 0 || o >= len(seen) || seen[o] {
				t.Fatalf("trial %d: expansion not a permutation: %v", trial, expanded)
			}
			seen[o] = true
		}
		// Determinism: a second run over the same inputs must coarsen to a
		// byte-identical body.
		res2 := Coarsen(prog, nests[0], Limits{})
		if len(res2.Nest.Body) != len(res.Nest.Body) {
			t.Fatalf("trial %d: nondeterministic coarsening", trial)
		}
		for i := range res.Nest.Body {
			if res.Nest.Body[i].String() != res2.Nest.Body[i].String() {
				t.Fatalf("trial %d: nondeterministic body at %d", trial, i)
			}
		}
	}
}

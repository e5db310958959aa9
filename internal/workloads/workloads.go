// Package workloads defines the 12 multithreaded applications of the
// evaluation (Splash-2: Barnes, Cholesky, FFT, FMM, LU, Ocean, Radiosity,
// Radix, Raytrace, Water; Mantevo: MiniMD, MiniXyce) as synthetic
// loop-nest kernels.
//
// The real benchmark sources are not reproducible here, so each application
// is distilled to the loop nests that dominate its data movement, preserving
// the properties the evaluation depends on:
//
//   - statement shape: operand counts, parentheses, operator mix (Table 3),
//   - compile-time analyzability: the fraction of affine vs indirect
//     references (Table 1),
//   - access pattern: strides and indirection producing the paper's
//     data-intensive, low-locality behaviour (original L2 miss rates were
//     16.4%–37.2%),
//   - inter-statement reuse that window-based scheduling can exploit.
//
// Absolute figures differ from real Splash-2 runs; the suite's purpose is
// that the *relative* behaviour of the partitioner across application styles
// (regular vs irregular, short vs long statements) matches the paper.
package workloads

import (
	"fmt"
	"math/rand"

	"dmacp/internal/ir"
)

// Sweeps is the trip count of the outer timestep loop wrapped around every
// kernel.
const Sweeps = 3

// Scale sets the size of a workload build.
type Scale struct {
	// Iters is the base trip count of the dominant loops.
	Iters int
	// Elems is the base array length.
	Elems int
}

// DefaultScale is used by the experiment harness: large enough that per-app
// network behaviour is stable, small enough for second-scale runs.
func DefaultScale() Scale { return Scale{Iters: 256, Elems: 1 << 16} }

// TestScale keeps unit tests fast.
func TestScale() Scale { return Scale{Iters: 32, Elems: 1 << 12} }

// App is one application: a program (symbol table), its loop nests, and the
// runtime store (inputs filled deterministically from the app seed).
type App struct {
	Name  string
	Prog  *ir.Program
	Nests []*ir.Nest
	Store *ir.Store
	// IndexArrays lists arrays used as indirection indices; their contents
	// are shuffled permutations so indirect accesses scatter realistically.
	IndexArrays []string
	seed        int64
}

// kernelSpec is the static description of one nest.
type kernelSpec struct {
	name  string
	iters int // multiplier applied to Scale.Iters
	body  string
}

// appSpec is the static description of one application.
type appSpec struct {
	name    string
	seed    int64
	index   []string // index arrays (filled with permutations)
	kernels []kernelSpec
}

// suite is the full application table. Statement bodies are written in the
// package ir statement language; loop variable is always i.
var suite = []appSpec{
	{
		// Barnes-Hut N-body: tree walks make it the least analyzable app
		// (Table 1: 68.3%); long force statements give it the highest
		// subcomputation parallelism (Figure 14).
		name: "Barnes", seed: 11, index: []string{"CH", "ND"},
		kernels: []kernelSpec{
			{"force", 1, `
AX(8*i) = AX(8*i) + M(CH(8*i))*DX(CH(8*i))/(R(8*i)*R(8*i)*R(8*i)) + M(CH(8*i+1))*DX(CH(8*i+1))
AY(8*i) = AY(8*i) + M(CH(8*i))*DY(CH(8*i))/(R(8*i)*R(8*i)*R(8*i)) + M(CH(8*i+2))*DY(CH(8*i+2))
POT(8*i) = POT(8*i) - M(ND(8*i))*M(CH(8*i))/R(8*i)`},
			{"update", 1, `
VX(8*i) = VX(8*i) + AX(8*i)*DT + JERK(8*i)*DT*DT
PX(8*i) = PX(8*i) + VX(8*i)*DT + AX(8*i)*DT*DT`},
		},
	},
	{
		// Cholesky factorization: dense triangular updates, almost fully
		// analyzable (97.2%), mul/div heavy (47.6%).
		name: "Cholesky", seed: 23,
		kernels: []kernelSpec{
			{"cdiv", 1, `
L(9*i) = A(9*i)/D(8*i)
L(9*i+1) = A(9*i+1)/D(8*i) - L(9*i)*D(8*i)`},
			{"cmod", 1, `
A(17*i) = A(17*i) - L(9*i)*L(9*i+8)*D(8*i)
A(17*i+8) = A(17*i+8) - L(9*i+1)*L(9*i+8)/D(8*i+8)`},
		},
	},
	{
		// FFT: butterfly stages with twiddle factors; large power-of-two
		// strides, a bit-reversal permutation supplies the indirect tail
		// (92.3% analyzable), mul-heavy (46.5%). The butterfly is written
		// the way real FFT sources are — twiddle products land in the
		// temporaries TR/TI before updating X — which makes it the suite's
		// canonical producer→consumer fusion target: the coarsening
		// pre-pass folds both temporaries back into the accumulating
		// statements.
		name: "FFT", seed: 37, index: []string{"BR"},
		kernels: []kernelSpec{
			{"butterfly", 1, `
TR(8*i) = WR(8*i)*YR(16*i+8) - WI(8*i)*YI(16*i+8)
XR(16*i) = XR(16*i) + TR(8*i)
TI(8*i) = WR(8*i)*YI(16*i+8) + WI(8*i)*YR(16*i+8)
XI(16*i) = XI(16*i) + TI(8*i)`},
			{"bitrev", 1, `
ZR(8*i) = XR(BR(8*i))
ZI(8*i) = XI(BR(8*i))`},
		},
	},
	{
		// Fast Multipole Method: interaction lists make it the second least
		// analyzable app (74.4%); balanced add/mul mix.
		name: "FMM", seed: 41, index: []string{"IL", "CEL"},
		kernels: []kernelSpec{
			{"m2l", 1, `
LE(8*i) = LE(8*i) + ME(IL(8*i))*TR(8*i) + ME(IL(8*i+1))*TI(8*i)
LO(8*i) = LO(8*i) + MO(IL(8*i))*TR(8*i) - MO(IL(8*i+2))*TI(8*i)`},
			{"l2p", 1, `
FP(8*i) = FP(8*i) + LE(CEL(8*i))*QX(8*i) + LO(CEL(8*i))*QY(8*i)`},
		},
	},
	{
		// LU decomposition: blocked updates, highly analyzable (90.7%), the
		// highest mul/div share (51.6%); a pivot permutation adds the small
		// indirect remainder.
		name: "LU", seed: 53, index: []string{"PV"},
		kernels: []kernelSpec{
			{"update", 1, `
A(65*i) = A(65*i) - L(8*i)*U(8*i)
A(65*i+8) = A(65*i+8) - L(8*i)*U(8*i+8)/P(8*i)`},
			{"pivot", 1, `
B(8*i) = A(PV(8*i))`},
		},
	},
	{
		// Ocean: 5-point stencil relaxation; the longest statements in the
		// suite (high parallelism in Figure 14), add-heavy (52.2%), with
		// boundary indirection (77.3% analyzable). Like the real SPLASH-2
		// sources, the stencil neighbourhood sum lands in a work array
		// (Ocean's WORK1..WORK7) before the relaxation update — a single-use
		// temporary the fusion pre-pass folds back into the update.
		name: "Ocean", seed: 67, index: []string{"BN"},
		kernels: []kernelSpec{
			{"relax", 1, `
WRK(8*i) = W1*(PSI(8*i+8)+PSI(8*i-8)+PSI(8*i+1024)+PSI(8*i-1024))
PSIN(8*i) = W0*PSI(8*i) + WRK(8*i) + F(8*i)
VORN(8*i) = W0*VOR(8*i) + W1*(VOR(8*i+8)+VOR(8*i-8)+VOR(8*i+1024)+VOR(8*i-1024)) + G(8*i)`},
			{"boundary", 1, `
PSI(BN(8*i)) = PSI(BN(8*i)) + EDGE(8*i)*W1`},
		},
	},
	{
		// Radiosity: patch-to-patch energy transfer over visibility lists
		// (77.3% analyzable); notable "others" share from masking (20.4%).
		name: "Radiosity", seed: 71, index: []string{"VIS"},
		kernels: []kernelSpec{
			{"gather", 1, `
RAD(8*i) = RAD(8*i) + FF(8*i)*EMIT(VIS(8*i)) + FF(8*i+1)*EMIT(VIS(8*i+1))
ACC(8*i) = ACC(8*i) & MASK(8*i) | RAD(8*i)`},
			{"shoot", 1, `
EMIT(8*i) = RAD(8*i)*REFL(8*i) + RES(8*i)`},
		},
	},
	{
		// Radix sort: rank/permute phases; counting uses masking and modulo
		// (largest "others" share, 22.3%), the permutation writes are
		// indirect (84.2% analyzable).
		name: "Radix", seed: 83, index: []string{"RK"},
		kernels: []kernelSpec{
			{"count", 1, `
DIG(8*i) = KEY(8*i) % 256
CNT(8*i) = CNT(8*i) + DIG(8*i) & MASKR(8*i)`},
			{"permute", 1, `
OUT(RK(8*i)) = KEY(8*i)
HIST(8*i) = HIST(8*i) + CNT(8*i)`},
		},
	},
	{
		// Raytrace: ray-object intersection via object grids; mul/div heavy
		// (49.7%) with grid indirection.
		name: "Raytrace", seed: 89, index: []string{"OBJ"},
		kernels: []kernelSpec{
			{"intersect", 1, `
TD(8*i) = OX(OBJ(8*i))*DX(8*i) + OY(OBJ(8*i))*DY(8*i) + OZ(OBJ(8*i))*DZ(8*i)
HIT(8*i) = TD(8*i)*TD(8*i) - CC(OBJ(8*i))/RAD2(8*i)`},
			{"shade", 1, `
COL(8*i) = COL(8*i) + KD(8*i)*LI(8*i)*HIT(8*i)`},
		},
	},
	{
		// Water: molecular dynamics on water molecules; the most add-heavy
		// app (58.1%), mostly regular pair interactions.
		name: "Water", seed: 97, index: []string{"PRT"},
		kernels: []kernelSpec{
			{"intra", 1, `
FX(8*i) = FX(8*i) + KB(8*i)*(RX(8*i+8)-RX(8*i)) + KA(8*i)*(RX(8*i-8)-RX(8*i))
FY(8*i) = FY(8*i) + KB(8*i)*(RY(8*i+8)-RY(8*i)) + KA(8*i)*(RY(8*i-8)-RY(8*i))`},
			{"inter", 1, `
EP(8*i) = EP(8*i) + QQ(8*i)/RD(PRT(8*i))`},
		},
	},
	{
		// MiniMD: Lennard-Jones force kernel over neighbor lists; the
		// classic inspector–executor case.
		name: "MiniMD", seed: 101, index: []string{"NB"},
		kernels: []kernelSpec{
			{"force", 1, `
FX(8*i) = FX(8*i) + SIG(8*i)*(XP(NB(8*i))-XP(8*i)) + EPSA(8*i)*(XP(NB(8*i+1))-XP(8*i))
EN(8*i) = EN(8*i) + SIG(8*i)*SIG(8*i)/RSQ(8*i)`},
			{"integrate", 1, `
VXN(8*i) = VX(8*i) + FX(8*i)*DT
XPN(8*i) = XP(8*i) + VXN(8*i)*DT`},
		},
	},
	{
		// MiniXyce: circuit simulation = sparse matrix-vector products; high
		// analyzability (93.8%) because the row structure is affine and only
		// the column gather is indirect.
		name: "MiniXyce", seed: 103, index: []string{"COLI"},
		kernels: []kernelSpec{
			{"spmv", 1, `
YV(8*i) = YV(8*i) + VAL(24*i)*XV(COLI(24*i)) + VAL(24*i+8)*XV(24*i+8)
RESID(8*i) = BV(8*i) - YV(8*i)`},
			{"daxpy", 1, `
XV(8*i) = XV(8*i) + ALPHA*PV(8*i)
PV(8*i) = RESID(8*i) + BETA*PV(8*i)`},
		},
	},
}

// Names returns the application names in evaluation order.
func Names() []string {
	out := make([]string, len(suite))
	for i, a := range suite {
		out[i] = a.name
	}
	return out
}

// Build constructs one application at the given scale.
func Build(name string, sc Scale) (*App, error) {
	a, err := Declare(name, sc)
	if err != nil {
		return nil, err
	}
	a.Allocate()
	return a, nil
}

// Declare constructs one application's program and loop nests at the given
// scale without allocating its arrays: Store stays nil until Allocate, so a
// caller can check the declared sizes first.
func Declare(name string, sc Scale) (*App, error) {
	for _, spec := range suite {
		if spec.name == name {
			return declare(spec, sc)
		}
	}
	return nil, fmt.Errorf("workloads: unknown application %q", name)
}

// Suite builds all 12 applications at the given scale.
func Suite(sc Scale) ([]*App, error) {
	apps := make([]*App, 0, len(suite))
	for _, spec := range suite {
		a, err := declare(spec, sc)
		if err != nil {
			return nil, err
		}
		a.Allocate()
		apps = append(apps, a)
	}
	return apps, nil
}

func declare(spec appSpec, sc Scale) (*App, error) {
	prog := ir.NewProgram()
	app := &App{Name: spec.name, Prog: prog, IndexArrays: spec.index, seed: spec.seed}
	for _, k := range spec.kernels {
		body, err := ir.ParseStatements(k.body)
		if err != nil {
			return nil, fmt.Errorf("workloads: %s/%s: %w", spec.name, k.name, err)
		}
		iters := sc.Iters * k.iters
		// Each kernel is swept Sweeps times by an outer timestep loop (the
		// applications iterate over timesteps/stages), so later sweeps find
		// their data in the L2 — reproducing the paper's 16%-37% original
		// L2 miss rates rather than an all-cold run.
		nest := &ir.Nest{
			Name: spec.name + "/" + k.name,
			Loops: []ir.Loop{
				{Var: "t", Lower: 0, Upper: Sweeps, Step: 1},
				{Var: "i", Lower: 0, Upper: iters, Step: 1},
			},
			Body: body,
		}
		prog.DeclareFromNest(nest, sc.Elems, 8)
		app.Nests = append(app.Nests, nest)
		prog.Nests = append(prog.Nests, nest)
	}
	for _, name := range spec.index {
		if prog.Array(name) == nil {
			return nil, fmt.Errorf("workloads: %s: index array %q not referenced", spec.name, name)
		}
	}
	return app, nil
}

// Allocate allocates a declared application's arrays and fills them
// deterministically from the app seed.
func (a *App) Allocate() {
	a.Store = ir.NewStore(a.Prog)
	a.Store.FillRandom(a.Prog, a.seed)
	// Index arrays hold shuffled indices over the full element range so
	// indirect accesses scatter across the chip.
	rng := rand.New(rand.NewSource(a.seed * 7919))
	for _, name := range a.IndexArrays {
		arr := a.Prog.Array(name)
		for i := 0; i < arr.Len; i++ {
			a.Store.Set(name, i, float64(rng.Intn(arr.Len)))
		}
	}
}

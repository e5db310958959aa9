package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SeedDiscipline keeps every stochastic harness replayable. The fault sweep,
// the verify-differential harness and the fuzz drivers all derive their
// randomness from explicit int64 seeds that appear in reports and bug
// filings; a single call to a math/rand global function (which draws from
// the process-wide, auto-seeded source) or a wall-clock-derived seed breaks
// replay silently. The analyzer forbids:
//
//   - math/rand (and math/rand/v2) package-level functions that use the
//     global source: Intn, Float64, Shuffle, Perm, Seed, ...;
//   - seeding from the wall clock: any rand.New/NewSource/Seed call whose
//     argument expression contains a time.Now() call.
//
// rand.New(rand.NewSource(seed)) with a caller-supplied deterministic seed
// is the sanctioned pattern. Test files are outside its reach: Load parses
// no _test.go file, and tests never emit schedules.
var SeedDiscipline = &Analyzer{
	Name: "seeddiscipline",
	Run:  runSeedDiscipline,
}

// globalRandFuncs are the math/rand package-level functions that consult the
// shared global source. New/NewSource/NewZipf construct explicit generators
// and are fine.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
	// math/rand/v2 additions.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint": true, "Uint32N": true,
	"Uint64N": true, "N": true,
}

func runSeedDiscipline(pass *Pass) {
	info := pass.Pkg.TypesInfo
	// Nested constructors (rand.New(rand.NewSource(time.Now()...))) both
	// see the same wall-clock call; report it once.
	reported := make(map[token.Pos]bool)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || !isMathRand(obj.Pkg().Path()) {
				return true
			}
			name := obj.Name()
			if _, isFunc := obj.(*types.Func); !isFunc {
				return true
			}
			if isGlobalSourceFunc(info, sel, name) {
				pass.Reportf(call.Pos(),
					"math/rand.%s draws from the auto-seeded global source; use an explicitly seeded rand.New(rand.NewSource(seed)) so runs replay from their recorded seed",
					name)
				return true
			}
			if name == "New" || name == "NewSource" || name == "Seed" || name == "NewPCG" || name == "NewChaCha8" {
				for _, arg := range call.Args {
					if tn := findTimeNow(info, arg); tn != nil && !reported[tn.Pos()] {
						reported[tn.Pos()] = true
						pass.Reportf(tn.Pos(),
							"seed derived from time.Now() is not replayable; thread an explicit int64 seed through the harness instead")
					}
				}
			}
			return true
		})
	}
}

func isMathRand(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// isGlobalSourceFunc reports whether sel names a package-level global-source
// function (rand.Intn, not r.Intn on an explicit *rand.Rand).
func isGlobalSourceFunc(info *types.Info, sel *ast.SelectorExpr, name string) bool {
	if !globalRandFuncs[name] {
		return false
	}
	// A method call on a *rand.Rand value has a selection entry; a
	// package-qualified call does not.
	if _, isMethod := info.Selections[sel]; isMethod {
		return false
	}
	return true
}

// findTimeNow returns the first time.Now call inside e, if any.
func findTimeNow(info *types.Info, e ast.Expr) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := info.Uses[sel.Sel]
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Now" {
			found = call
			return false
		}
		return true
	})
	return found
}

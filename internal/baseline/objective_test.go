package baseline

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/predictor"
)

// bruteForceChunkOf is the reference ProfiledLocality assignment: the same
// profiling pass as Place (fresh locator, private predictor clone), with
// every located reference kept and each candidate core scored by summing
// mesh.Distance to every one of them.
func bruteForceChunkOf(t *testing.T, prog *ir.Program, nest *ir.Nest, store *ir.Store, opts core.Options) []mesh.NodeID {
	t.Helper()
	if opts.Predictor != nil {
		opts.Predictor = opts.Predictor.Fresh()
	}
	loc, err := core.NewLocator(&opts)
	if err != nil {
		t.Fatal(err)
	}
	iters, nodes := nest.Iterations(), opts.Mesh.Nodes()
	chunkSize := max(iters/(nodes*chunksPerCore), 1)
	numChunks := (iters + chunkSize - 1) / chunkSize
	located := make([][]mesh.NodeID, numChunks)
	for it := 0; it < iters; it++ {
		env := nest.IterationEnv(it)
		for _, stmt := range nest.Body {
			for _, ref := range stmt.AllRefs() {
				if ll, ok := loc.LocateRef(prog, ref, env, store); ok {
					located[it/chunkSize] = append(located[it/chunkSize], ll.Node())
				}
			}
		}
	}
	perCoreCap := (numChunks + nodes - 1) / nodes
	load := make([]int, nodes)
	chunkOf := make([]mesh.NodeID, numChunks)
	for c, locs := range located {
		best, bestSum := mesh.InvalidNode, 1<<62
		for n := mesh.NodeID(0); int(n) < nodes; n++ {
			if load[n] >= perCoreCap {
				continue
			}
			sum := 0
			for _, l := range locs {
				sum += opts.Mesh.Distance(n, l)
			}
			if sum < bestSum {
				best, bestSum = n, sum
			}
		}
		chunkOf[c] = best
		load[best]++
	}
	return chunkOf
}

// TestProfiledLocalityMatchesBruteForce: the separable (per-axis histogram)
// objective picks exactly the cores the pairwise-distance objective picks,
// on non-square meshes (which catch a row/column swap) and on 6x6, for
// affine and indirect (IX) nests with the L2 predictor on. BuildMCMap, which
// reads the placement, must come out the same for both.
func TestProfiledLocalityMatchesBruteForce(t *testing.T) {
	kernels := map[string]string{
		"affine":   "A(8*i) = B(8*i)+C(16*i)+D(8*i+64)\nX(8*i) = Y(8*i+8)+C(16*i)",
		"indirect": "A(IX(i)) = B(IX(2*i))+C(i)\nD(i) = A(IX(i+1))*E(3*i)",
	}
	for _, dims := range [][2]int{{3, 5}, {8, 4}, {6, 6}} {
		for _, name := range []string{"affine", "indirect"} {
			cols, rows := dims[0], dims[1]
			t.Run(fmt.Sprintf("%dx%d/%s", cols, rows, name), func(t *testing.T) {
				stmts, err := ir.ParseStatements(kernels[name])
				if err != nil {
					t.Fatal(err)
				}
				m := mesh.MustNew(cols, rows)
				nest := &ir.Nest{
					Name:  name,
					Loops: []ir.Loop{{Var: "i", Lower: 0, Upper: 12 * m.Nodes(), Step: 1}},
					Body:  stmts,
				}
				prog := ir.NewProgram()
				prog.DeclareFromNest(nest, 1<<14, 8)
				store := ir.NewStore(prog)
				store.FillRandom(prog, 3)

				o := opts()
				o.Mesh = m
				o.Layout.L2Banks = m.Nodes()
				o.Predictor = predictor.MustNew(predictor.Config{
					L2TotalBytes: o.L2BankBytes * uint64(m.Nodes()),
					LineBytes:    o.Layout.LineBytes,
					Ways:         o.L2Ways,
					SampleMod:    8,
				})

				res, err := Place(prog, nest, store, o, ProfiledLocality)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteForceChunkOf(t, prog, nest, store, o)
				if len(res.ChunkOf) != len(want) {
					t.Fatalf("%d chunks, brute force %d", len(res.ChunkOf), len(want))
				}
				for c := range want {
					if res.ChunkOf[c] != want[c] {
						t.Fatalf("chunk %d on core %d, brute force picks %d", c, res.ChunkOf[c], want[c])
					}
				}

				got, err := BuildMCMap(prog, nest, store, o, res)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := BuildMCMap(prog, nest, store, o, &Result{ChunkOf: want})
				if err != nil {
					t.Fatal(err)
				}
				if !maps.Equal(got, ref) {
					t.Errorf("BuildMCMap differs: %d pages vs brute-force placement's %d", len(got), len(ref))
				}
			})
		}
	}
}

// TestBestSeparableMatchesFullScan: the row-pruned scan returns exactly the
// full row-major scan's core — lowest score, ties to the lower node id, 0
// when every core is full — on seeded random axis costs with many ties and
// random loads, on square and non-square meshes.
func TestBestSeparableMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 5000; trial++ {
		cols, rows := 1+rng.Intn(9), 1+rng.Intn(9)
		colCost, rowCost := make([]int, cols), make([]int, rows)
		spread := 1 + rng.Intn(6) // small spreads make ties common
		for x := range colCost {
			colCost[x] = rng.Intn(spread)
		}
		for y := range rowCost {
			rowCost[y] = rng.Intn(spread)
		}
		capPerCore := 1 + rng.Intn(3)
		load := make([]int, cols*rows)
		for n := range load {
			load[n] = rng.Intn(capPerCore + 1)
		}
		want, wantVal := mesh.NodeID(0), 1<<62
		for n := range load {
			if v := colCost[n%cols] + rowCost[n/cols]; load[n] < capPerCore && v < wantVal {
				want, wantVal = mesh.NodeID(n), v
			}
		}
		if got := bestSeparable(load, capPerCore, colCost, rowCost); got != want {
			t.Fatalf("trial %d (%dx%d, cols %v, rows %v, load %v, cap %d): core %d, full scan %d",
				trial, cols, rows, colCost, rowCost, load, capPerCore, got, want)
		}
	}
}

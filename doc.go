// Package dmacp is a from-scratch Go reproduction of "Data Movement Aware
// Computation Partitioning" (Xulong Tang, Orhan Kislal, Mahmut Kandemir,
// Mustafa Karakoy; MICRO-50, 2017).
//
// The paper proposes a compiler pass for mesh-based manycores that splits
// each loop-nest statement into subcomputations and schedules them on the
// nodes holding the statement's operands, minimizing on-chip data movement
// via per-statement minimum spanning trees, exploiting L1 reuse across
// statement windows, balancing load, and minimizing synchronizations.
//
// The public API lives in package dmacp/pipeline; the paper's contribution
// is implemented in internal/core on top of substrates for the mesh network
// (internal/mesh), SNUCA address mapping (internal/addrmap), caches
// (internal/cache), the L2 hit/miss predictor (internal/predictor), the
// compiler IR (internal/ir), the timing and energy simulator
// (internal/sim), the default placement baselines (internal/baseline), the
// 12-application workload suite (internal/workloads), and the experiment
// harness (internal/exp).
//
// `go run ./cmd/experiments -run all` regenerates every table and figure of
// the paper's evaluation and prints them with the paper's claims side by
// side.
package dmacp

// Package core implements the paper's contribution: the NDP-aware
// computation partitioner. It takes a loop nest, splits every statement
// instance into subcomputations using level-based minimum-spanning-tree
// construction over the mesh nodes that hold the statement's data
// (Algorithm 1), schedules the subcomputations window by window so that L1
// reuse across nearby statements is exploited, balances load across nodes,
// minimizes synchronizations by transitive reduction, and emits a task-level
// schedule for the timing simulator.
package core

import (
	"fmt"

	"dmacp/internal/addrmap"
	"dmacp/internal/mesh"
	"dmacp/internal/predictor"
)

// Options configures one partitioning run.
type Options struct {
	// Mesh is the target on-chip network. Required.
	Mesh *mesh.Mesh
	// Layout is the physical address mapping. Layout.L2Banks must equal
	// Mesh.Nodes().
	Layout addrmap.Layout
	// Mode is the cluster mode (all-to-all / quadrant / SNC-4).
	Mode mesh.ClusterMode

	// Predictor is the L2 hit/miss predictor consulted during data location
	// detection. Nil together with IdealAnalysis=false means "always predict
	// hit" (data assumed on chip).
	Predictor *predictor.Predictor
	// IdealAnalysis gives the compiler oracle knowledge of data locations
	// (the "ideal data analysis" configuration of Section 6.4): actual L2
	// residency is used instead of the predictor, and indirect references
	// resolve perfectly.
	IdealAnalysis bool

	// Fuse enables the producer→consumer coarsening pre-pass
	// (internal/fusion): statements whose stored value has exactly one
	// consumer — the next statement — are merged before the window sweep,
	// so the partitioner schedules fewer instances and never pays movement
	// for single-use temporaries. Disabled by -nofuse on the CLIs.
	Fuse bool

	// MaxWindow bounds the adaptive window-size search (the paper searches 1
	// through 8 statements).
	MaxWindow int
	// FixedWindow, when positive, disables the adaptive search and uses the
	// given window size for every nest (the fixed-window bars of Figure 20).
	FixedWindow int
	// ReuseAware enables the variable2node L1-reuse map. Disabling it gives
	// the "reuse-agnostic" variant discussed at the end of Section 6.3.
	ReuseAware bool

	// LoadThreshold is the load-balancing slack: a node is skipped when
	// taking a subcomputation would put its load more than this fraction
	// above the next most loaded node (the paper's configurable 10%).
	LoadThreshold float64
	// DivWeight is the cost multiplier for divisions when measuring
	// subcomputation cost (the paper uses 10x).
	DivWeight int

	// MCOverride optionally remaps pages to specific memory controllers
	// (page number -> MC node), modeling the profile-based data-to-MC
	// mapping of Section 6.5. Pages absent from the map use the cluster
	// mode's default MC.
	MCOverride map[uint64]mesh.NodeID

	// Jobs bounds the worker pool of the window-size sweep: each window trial
	// is an independent pass, so Partition fans them out on up to Jobs
	// goroutines. <= 0 means one worker per CPU (GOMAXPROCS); 1 forces the
	// serial sweep. Results are aggregated in window order either way, so the
	// outcome is identical at every setting.
	Jobs int

	// L1Bytes/L1Ways size the per-node L1 shadow caches that model reuse and
	// pollution.
	L1Bytes uint64
	L1Ways  int
	// L2BankBytes sizes each node's L2 bank for the residency model.
	L2BankBytes uint64
	// L2Ways is the associativity of each L2 bank model.
	L2Ways int
}

// DefaultOptions returns options mirroring the evaluation platform: a 6x6
// mesh (KNL's 36 tiles), quadrant cluster mode, 32 KB 8-way L1s, 1 MB 16-way
// L2 banks, window search up to 8 statements, 10% load slack and 10x division
// weight.
func DefaultOptions() Options {
	m := mesh.MustNew(6, 6)
	l := addrmap.DefaultLayout()
	l.L2Banks = m.Nodes()
	return Options{
		Mesh:          m,
		Layout:        l,
		Mode:          mesh.Quadrant,
		Fuse:          true,
		MaxWindow:     8,
		ReuseAware:    true,
		LoadThreshold: 0.10,
		DivWeight:     10,
		L1Bytes:       32 << 10,
		L1Ways:        8,
		L2BankBytes:   1 << 20,
		L2Ways:        16,
	}
}

// Validate checks option consistency.
func (o *Options) Validate() error {
	if o.Mesh == nil {
		return fmt.Errorf("core: Options.Mesh is required")
	}
	if err := o.Layout.Validate(); err != nil {
		return err
	}
	if o.Layout.L2Banks != o.Mesh.Nodes() {
		return fmt.Errorf("core: layout has %d L2 banks but mesh has %d nodes",
			o.Layout.L2Banks, o.Mesh.Nodes())
	}
	if o.MaxWindow <= 0 && o.FixedWindow <= 0 {
		return fmt.Errorf("core: need MaxWindow or FixedWindow > 0")
	}
	if o.LoadThreshold < 0 {
		return fmt.Errorf("core: negative LoadThreshold")
	}
	if o.DivWeight <= 0 {
		return fmt.Errorf("core: DivWeight must be positive")
	}
	if o.L1Bytes == 0 || o.L1Ways <= 0 || o.L2BankBytes == 0 || o.L2Ways <= 0 {
		return fmt.Errorf("core: cache model parameters must be positive")
	}
	return nil
}

// windowSizes returns the window sizes the partitioner will evaluate.
func (o *Options) windowSizes() []int {
	if o.FixedWindow > 0 {
		return []int{o.FixedWindow}
	}
	sizes := make([]int, o.MaxWindow)
	for i := range sizes {
		sizes[i] = i + 1
	}
	return sizes
}

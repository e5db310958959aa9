package core

import "dmacp/internal/ir"

// ReduceSyncsPath is ReduceSyncs that also reports whether the walk budget
// ran out and the reachability index answered the rest of the call.
var ReduceSyncsPath = reduceSyncs

// EmitUnreduced returns the schedule one pass at the given window emits for
// nest before DedupeWaits and ReduceSyncs — the input Partition hands the
// sync reduction — without the fusion pre-pass.
func EmitUnreduced(prog *ir.Program, nest *ir.Nest, store *ir.Store, opts Options, window int) (*Schedule, error) {
	tr, err := locateNest(prog, nest, store, &opts)
	if err != nil {
		return nil, err
	}
	return runPass(tr, &opts, window, true).schedule, nil
}

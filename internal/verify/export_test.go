package verify

// ReferenceCheck exposes the pre-rework verifier to the external tests.
var ReferenceCheck = referenceCheck

// CheckWithClosureBound is Check under an explicit soft memory bound on the
// reachability index, so tests can force the BFS fallback.
var CheckWithClosureBound = check

// Chains returns the happens-before index's total and indexed chain counts.
func (c *Closure) Chains() (total, indexed int) { return c.ix.Chains() }

package verify

// ReferenceCheck exposes the pre-rework verifier to the external tests.
var ReferenceCheck = referenceCheck

// Chains returns the happens-before index's total and indexed chain counts.
func (c *Closure) Chains() (total, indexed int) { return c.ix.Chains() }

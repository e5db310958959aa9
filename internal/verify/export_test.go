package verify

// ReferenceCheck exposes the pre-rework verifier to the external tests.
var ReferenceCheck = referenceCheck

// CheckWithClosureBound is Check under an explicit soft memory bound on the
// reachability index, so tests can force the BFS fallback.
var CheckWithClosureBound = check

// Chains returns the happens-before index's total and indexed chain counts.
func (c *Closure) Chains() (total, indexed int) { return c.ix.Chains() }

// SpeculativeRaces runs in's race replay on the speculative oracle and
// reports whether Check re-runs it on the closure: the closure refutes a
// pair the replay assumed ordered. A cyclic schedule has no closure and
// reports false.
func SpeculativeRaces(in Input) (rerun bool) {
	spec := &speculation{tasks: in.Schedule.Tasks}
	checkRaces(in, Options{}.withDefaults(), &Report{}, spec.ordered)
	hb, _ := BuildClosure(in.Schedule.Tasks, true)
	return hb != nil && !spec.confirmed(hb)
}

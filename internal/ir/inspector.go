package ir

import "fmt"

// Inspector implements the inspector phase of the inspector–executor
// paradigm (Section 4.5): for nests whose bodies contain indirect array
// accesses, the inspector executes the address computation of the first
// iterations of the (implicit) timing loop against the runtime store,
// checking that every indirect reference resolves to an element. The
// executor phase — the partitioner running over the remaining timing
// iterations — then resolves the same subscripts through the same store
// instead of giving up on the reference.
type Inspector struct {
	prog *Program
	nest *Nest
}

// NewInspector creates an inspector for one nest of prog.
func NewInspector(prog *Program, nest *Nest) *Inspector {
	return &Inspector{prog: prog, nest: nest}
}

// Run executes the inspection: it walks every iteration of the nest,
// resolving the subscript of each indirect reference through the store, and
// returns the first subscript that does not resolve. Analyzable references
// are skipped (the compiler already knows them). The paper runs the
// inspector on the beginning iterations of the timing loop; because the
// synthetic index arrays do not change between timing iterations, one sweep
// suffices.
func (ins *Inspector) Run(store *Store) error {
	if store == nil {
		return fmt.Errorf("ir: inspector requires a runtime store")
	}
	var failure error
	ins.nest.ForEachIteration(func(env map[string]int) bool {
		for _, stmt := range ins.nest.Body {
			for _, ref := range stmt.AllRefs() {
				if !ref.Indirect() {
					continue
				}
				if _, err := ins.prog.IndexOf(ref, env, store); err != nil {
					failure = err
					return false
				}
			}
		}
		return true
	})
	return failure
}

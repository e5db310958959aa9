package analysis

// FrozenState enforces publication freezing: a value published for
// concurrent read must not be mutated after publication. The registry of
// frozen types has two sources — built-in defaults for the reproduction's
// shared read-mostly structures (mesh.DistanceTable, the distance view
// built with its mesh or memoized on a fault set and read by every
// distance query; core.Schedule, whose bytes are the determinism contract
// once emitted), and a declaration-site annotation for new ones:
//
//	//lint:dmacp-frozen
//	type RouteCache struct { ... }
//
// The ownership rule is package-granular: only the declaring package may
// mutate a frozen type (its constructors, sync.Once initializers and
// repair entry points are the sanctioned mutation sites). Two violation
// shapes are reported, both interprocedural via the Mutates summaries:
//
//   - a direct write reaching a frozen value's interior from another
//     package (s.Tasks[i].Node = n, *table = ..., field assignment);
//   - a frozen value passed to a function outside the declaring package
//     whose summary says it mutates that parameter's pointee.

var FrozenState = &Analyzer{
	Name: "frozenstate",
	Doc: "values published for concurrent read (mesh.DistanceTable, core.Schedule, " +
		"//lint:dmacp-frozen types) must not be mutated outside their declaring package",
	Run:        runFrozenState,
	NeedsFacts: true,
}

func runFrozenState(pass *Pass) {
	reportFindings(pass)
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ParOwnership mechanizes the worker-pool ownership rule the parallel
// engine's determinism rests on: inside a par.ForEach worker closure, a
// write to captured state is legal only when it targets the worker's own
// indexed slot (an element access whose index is derived from the closure's
// index parameter) or is guarded by a sync.Mutex/RWMutex Lock. Everything
// else — appends to shared slices, writes to shared scalars, unguarded map
// inserts — is exactly the class of bug that makes parallel runs diverge
// from serial ones (or race outright), and is flagged at the write site.
var ParOwnership = &Analyzer{
	Name: "parownership",
	Run:  runParOwnership,
}

func runParOwnership(pass *Pass) {
	info := pass.Pkg.TypesInfo
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParForEach(info, call) || len(call.Args) == 0 {
				return true
			}
			fn, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true
			}
			checkWorkerClosure(pass, fn)
			return true
		})
	}
}

// isParForEach reports whether call invokes ForEach from
// dmacp's internal/par package.
func isParForEach(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if obj.Name() != "ForEach" {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), "internal/par") ||
		strings.HasSuffix(obj.Pkg().Path(), "/par")
}

// checkWorkerClosure walks one worker body flagging ownership violations.
func checkWorkerClosure(pass *Pass, fn *ast.FuncLit) {
	info := pass.Pkg.TypesInfo

	// The worker's index parameter: par.ForEach(jobs, n, func(i int) {...}).
	var indexParam types.Object
	if fields := fn.Type.Params.List; len(fields) > 0 && len(fields[0].Names) > 0 {
		indexParam = info.Defs[fields[0].Names[0]]
	}

	// Objects declared anywhere inside the closure are worker-private.
	// (The index parameter sits in the signature, before Body.Pos(), and is
	// handled by the explicit root == indexParam comparison below.)
	local := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= fn.Body.Pos() && obj.Pos() <= fn.Body.End()
	}

	var walk func(stmts []ast.Stmt, locked bool)
	checkWrite := func(lhs ast.Expr, pos token.Pos, locked bool) {
		if locked {
			return
		}
		root, ownSlot := writeTarget(info, indexParam, lhs)
		if root == nil || local(root) || root == indexParam || ownSlot {
			return
		}
		pass.Reportf(pos,
			"write to captured %q inside a par.ForEach worker is not the worker's indexed slot and is not mutex-guarded; give each worker its own result slot (indexed by the worker's parameter) or guard the write with a sync.Mutex",
			root.Name())
	}
	walk = func(stmts []ast.Stmt, locked bool) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *ast.ExprStmt:
				if isMutexCall(info, st.X, "Lock") {
					locked = true
				}
				if isMutexCall(info, st.X, "Unlock") {
					locked = false
				}
			case *ast.DeferStmt:
				// defer mu.Unlock() keeps the section locked to the
				// end of the closure; nothing to do.
			case *ast.AssignStmt:
				if st.Tok != token.DEFINE {
					for _, lhs := range st.Lhs {
						checkWrite(lhs, st.Pos(), locked)
					}
				}
				walkExprStmts(st, locked, walk)
			case *ast.IncDecStmt:
				checkWrite(st.X, st.Pos(), locked)
			case *ast.BlockStmt:
				walk(st.List, locked)
			case *ast.IfStmt:
				if st.Init != nil {
					walk([]ast.Stmt{st.Init}, locked)
				}
				walk(st.Body.List, locked)
				if st.Else != nil {
					walk([]ast.Stmt{st.Else}, locked)
				}
			case *ast.ForStmt:
				walk(st.Body.List, locked)
			case *ast.RangeStmt:
				if st.Tok == token.ASSIGN {
					checkWrite(st.Key, st.Pos(), locked)
					if st.Value != nil {
						checkWrite(st.Value, st.Pos(), locked)
					}
				}
				walk(st.Body.List, locked)
			case *ast.SwitchStmt:
				for _, c := range st.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walk(cc.Body, locked)
					}
				}
			case *ast.TypeSwitchStmt:
				for _, c := range st.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walk(cc.Body, locked)
					}
				}
			case *ast.LabeledStmt:
				walk([]ast.Stmt{st.Stmt}, locked)
			}
		}
	}
	walk(fn.Body.List, false)
}

// walkExprStmts recurses into nested function literals on the RHS of an
// assignment so writes inside them are checked with the same lock state.
func walkExprStmts(st *ast.AssignStmt, locked bool, walk func([]ast.Stmt, bool)) {
	for _, rhs := range st.Rhs {
		ast.Inspect(rhs, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				walk(fl.Body.List, locked)
				return false
			}
			return true
		})
	}
}

// writeTarget resolves the root captured object of an lvalue and whether the
// access goes through an element indexed by the worker's index parameter
// (the worker's own slot under the indexed-slot merge rule).
func writeTarget(info *types.Info, indexParam types.Object, lhs ast.Expr) (root types.Object, ownSlot bool) {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if e.Name == "_" {
				return nil, false
			}
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e]
			}
			return obj, ownSlot
		case *ast.IndexExpr:
			// Indexing a map is never an owned slot: two workers may
			// collide on the same bucket even with distinct keys.
			if tv, ok := info.Types[e.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					if indexParam != nil && usesObject(info, e.Index, indexParam) {
						ownSlot = true
					}
				}
			}
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		default:
			return nil, false
		}
	}
}

// usesObject reports whether expr references obj.
func usesObject(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// isMutexCall reports whether expr is a call of the named method on a
// sync.Mutex or sync.RWMutex (including RLock/RUnlock when name is
// Lock/Unlock's reader sibling).
func isMutexCall(info *types.Info, expr ast.Expr, name string) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != name && sel.Sel.Name != "R"+name {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	s := t.String()
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

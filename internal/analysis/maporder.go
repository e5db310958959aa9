package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags `range` over a map in schedule-emission packages. Go
// randomizes map iteration order per run, so any map range whose body feeds
// task ordering, sync-arc emission, or report bytes silently breaks the
// byte-identical-at-any-j guarantee. A loop escapes the check only when:
//
//   - its body is provably order-insensitive under a conservative syntactic
//     rule — every write lands in a map (or set) or in a variable local to
//     the loop body, and no call with unknown side effects executes; or
//   - it is the collect half of the sanctioned collect-sort-range idiom:
//     the body only appends keys/values to one slice, and the next use of
//     that slice in the enclosing block is a sort.* or slices.Sort* call.
//
// A mechanical rewrite to the sorted-keys idiom is attached to each finding
// as a suggested fix.
var MapOrder = &Analyzer{
	Name: "maporder",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	if !onEmissionPath(pass.Pkg.ImportPath) {
		return
	}
	for _, f := range pass.Pkg.Files {
		// Every function body (declarations and literals, however deeply
		// nested) gets one statement-list walk; mapOrderStmts does not
		// descend into nested literals itself, so each list is checked
		// exactly once.
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					mapOrderStmts(pass, d.Body.List)
				}
			case *ast.FuncLit:
				mapOrderStmts(pass, d.Body.List)
			}
			return true
		})
	}
}

// mapOrderStmts checks one statement list; each range statement sees the
// statements that follow it so the collect-sort idiom can be recognized.
func mapOrderStmts(pass *Pass, stmts []ast.Stmt) {
	for i, s := range stmts {
		switch st := s.(type) {
		case *ast.RangeStmt:
			checkMapRange(pass, st, stmts[i+1:])
			mapOrderStmts(pass, st.Body.List)
		case *ast.ForStmt:
			mapOrderStmts(pass, st.Body.List)
		case *ast.BlockStmt:
			mapOrderStmts(pass, st.List)
		case *ast.IfStmt:
			mapOrderStmts(pass, st.Body.List)
			if st.Else != nil {
				mapOrderStmts(pass, []ast.Stmt{st.Else})
			}
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					mapOrderStmts(pass, cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					mapOrderStmts(pass, cc.Body)
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					mapOrderStmts(pass, cc.Body)
				}
			}
		case *ast.LabeledStmt:
			mapOrderStmts(pass, []ast.Stmt{st.Stmt})
		}
		// Function literals (in go/defer statements, assignments, call
		// arguments) are deliberately not entered here: runMapOrder's
		// Inspect visits every FuncLit and walks its body separately.
	}
}

// checkMapRange applies the maporder rule to one range statement.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, following []ast.Stmt) {
	info := pass.Pkg.TypesInfo
	tv, ok := info.Types[rs.X]
	if !ok {
		return
	}
	if isMapsKeysCall(info, rs.X) {
		pass.Reportf(rs.For,
			"range over maps.Keys(%s) observes map iteration order; collect the keys into a slice and sort it first",
			exprString(pass.Pkg.Fset, keysArg(rs.X)))
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if orderInsensitiveBody(info, rs) {
		return
	}
	if collected := collectOnlyBody(info, rs); collected != nil && sortedBeforeUse(info, following, collected) {
		return
	}
	fix := sortedKeysFix(pass, rs, tv.Type)
	pass.ReportWithFix(rs.For, fix,
		"range over map %s in a schedule-emission package: iteration order is randomized per run; sort the keys first or make the body order-insensitive (map/set writes only)",
		exprString(pass.Pkg.Fset, rs.X))
}

// isMapsKeysCall reports whether e is a direct call of maps.Keys (std "maps"
// or a vendored equivalent), i.e. an iterator whose order is the map's.
func isMapsKeysCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Keys" {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == "maps" || strings.HasSuffix(p, "/maps")
}

func keysArg(e ast.Expr) ast.Expr {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && len(call.Args) > 0 {
		return call.Args[0]
	}
	return e
}

// orderInsensitiveBody reports whether the loop body cannot observably depend
// on iteration order: all effects are writes into maps/sets or into
// variables declared inside the body, calls are limited to map-mutating
// builtins, and control cannot escape early (a `return` inside a map range
// makes the taken path order-dependent).
func orderInsensitiveBody(info *types.Info, rs *ast.RangeStmt) bool {
	declared := rangeVarObjects(info, rs)
	ok := true
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if !ok || n == nil {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				for _, lhs := range s.Lhs {
					if id, isIdent := lhs.(*ast.Ident); isIdent {
						if obj := info.Defs[id]; obj != nil {
							declared[obj] = true
						}
					}
				}
				return true
			}
			for _, lhs := range s.Lhs {
				if !orderInsensitiveTarget(info, declared, lhs) {
					ok = false
				}
			}
			return true
		case *ast.IncDecStmt:
			if !orderInsensitiveTarget(info, declared, s.X) {
				ok = false
			}
			return true
		case *ast.DeclStmt:
			if gd, isGen := s.Decl.(*ast.GenDecl); isGen {
				for _, spec := range gd.Specs {
					if vs, isVal := spec.(*ast.ValueSpec); isVal {
						for _, id := range vs.Names {
							if obj := info.Defs[id]; obj != nil {
								declared[obj] = true
							}
						}
					}
				}
			}
			return true
		case *ast.RangeStmt:
			for obj := range rangeVarObjects(info, s) {
				declared[obj] = true
			}
			return true
		case *ast.ExprStmt:
			call, isCall := s.X.(*ast.CallExpr)
			if !isCall || !isMapMutatingBuiltin(info, call) {
				ok = false
			}
			return true
		case *ast.ReturnStmt, *ast.GoStmt, *ast.DeferStmt, *ast.SendStmt:
			// Early exit, goroutine spawn, or channel traffic inside a
			// map range all publish iteration order.
			ok = false
			return false
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				ok = false
			}
			return true
		}
		return true
	})
	return ok
}

// rangeVarObjects returns the objects a range statement's := clause defines.
func rangeVarObjects(info *types.Info, rs *ast.RangeStmt) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				objs[obj] = true
			}
		}
	}
	return objs
}

// orderInsensitiveTarget reports whether writing through lhs cannot leak
// iteration order: the destination is a map element, or a variable declared
// inside the loop body (per-iteration state), or the blank identifier.
func orderInsensitiveTarget(info *types.Info, declared map[types.Object]bool, lhs ast.Expr) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return true
		}
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		return obj != nil && declared[obj]
	case *ast.IndexExpr:
		if tv, ok := info.Types[e.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				return true
			}
		}
		// Writes into non-map containers keep order-insensitivity only
		// when the container itself is loop-local.
		return orderInsensitiveTarget(info, declared, e.X)
	case *ast.SelectorExpr:
		return orderInsensitiveTarget(info, declared, e.X)
	case *ast.StarExpr:
		return false // write through a pointer: unknowable destination
	default:
		return false
	}
}

// isMapMutatingBuiltin recognizes the statement-position calls that are safe
// inside a map range: delete(m, k) and clear(m).
func isMapMutatingBuiltin(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if obj, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
		return obj.Name() == "delete" || obj.Name() == "clear"
	}
	return false
}

// collectOnlyBody reports whether the loop body does nothing but append the
// range variables (or expressions over them) to a single outer slice — the
// collect half of the collect-sort-range idiom. It returns that slice's
// object, or nil.
func collectOnlyBody(info *types.Info, rs *ast.RangeStmt) types.Object {
	var target types.Object
	ok := true
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if !ok || n == nil {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 || s.Tok != token.ASSIGN {
				ok = false
				return false
			}
			id, isIdent := s.Lhs[0].(*ast.Ident)
			if !isIdent {
				ok = false
				return false
			}
			obj := info.Uses[id]
			call, isCall := s.Rhs[0].(*ast.CallExpr)
			if obj == nil || !isCall || !isAppendTo(info, call, obj) {
				ok = false
				return false
			}
			if target == nil {
				target = obj
			} else if target != obj {
				ok = false
			}
			return false
		case *ast.IfStmt, *ast.BlockStmt, *ast.BranchStmt:
			return true
		case *ast.ExprStmt, *ast.ReturnStmt, *ast.IncDecStmt, *ast.DeclStmt,
			*ast.RangeStmt, *ast.ForStmt, *ast.GoStmt, *ast.DeferStmt, *ast.SendStmt:
			ok = false
			return false
		}
		return true
	})
	if !ok {
		return nil
	}
	return target
}

// isAppendTo reports whether call is append(obj, ...).
func isAppendTo(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, isBuiltin := info.Uses[id].(*types.Builtin)
	if !isBuiltin || b.Name() != "append" || len(call.Args) < 2 {
		return false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.Uses[first] == obj
}

// sortedBeforeUse reports whether the first statement after the collect loop
// that touches obj is a sort.* / slices.Sort* call over it.
func sortedBeforeUse(info *types.Info, following []ast.Stmt, obj types.Object) bool {
	for _, s := range following {
		if !stmtUsesObject(info, s, obj) {
			continue
		}
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		fn := info.Uses[sel.Sel]
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return false
		}
		name := fn.Name()
		return strings.HasPrefix(name, "Sort") || strings.HasPrefix(name, "Stable") ||
			name == "Ints" || name == "Strings" || name == "Float64s" || name == "Slice" ||
			name == "SliceStable"
	}
	return false
}

// stmtUsesObject reports whether any identifier in s resolves to obj.
func stmtUsesObject(info *types.Info, s ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// sortedKeysFix builds the mechanical collect-sort-range rewrite for a
// flagged map range.
func sortedKeysFix(pass *Pass, rs *ast.RangeStmt, mapType types.Type) *SuggestedFix {
	mt, ok := mapType.Underlying().(*types.Map)
	if !ok {
		return nil
	}
	fset := pass.Pkg.Fset
	m := exprString(fset, rs.X)
	keyT := types.TypeString(mt.Key(), func(p *types.Package) string {
		if p == pass.Pkg.Types {
			return ""
		}
		return p.Name() // as the source would spell it, not the import path
	})
	key := "k"
	if id, isIdent := rs.Key.(*ast.Ident); isIdent && id.Name != "_" {
		key = id.Name
	}
	var b strings.Builder
	fmt.Fprintf(&b, "keys := make([]%s, 0, len(%s))\n", keyT, m)
	fmt.Fprintf(&b, "for %s := range %s {\n\tkeys = append(keys, %s)\n}\n", key, m, key)
	fmt.Fprintf(&b, "slices.Sort(keys) // or sort.Slice with a total order on %s\n", keyT)
	fmt.Fprintf(&b, "for _, %s := range keys {\n", key)
	if id, isIdent := rs.Value.(*ast.Ident); isIdent && id.Name != "_" {
		fmt.Fprintf(&b, "\t%s := %s[%s]\n", id.Name, m, key)
	}
	b.WriteString("\t// ... body ...\n}")
	return &SuggestedFix{
		Message:     "iterate over sorted keys",
		Replacement: b.String(),
	}
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "<expr>"
	}
	return buf.String()
}

package analysis

import (
	"go/ast"
	"go/types"
)

// CtxDiscipline mechanizes the project's cancellation-plumbing convention,
// which the deadline-bounded repair ladder follows: a context.Context is
// always passed explicitly as the first parameter (after the receiver) of
// the function that consults it, and is never stored in a struct field. Stored
// contexts outlive the call they were scoped to — exactly the bug class that
// makes a deadline from one repair leak into the next — and a context hiding
// in the middle of a parameter list defeats grep-ability of the cancellation
// path. Both are flagged at the declaration site.
var CtxDiscipline = &Analyzer{
	Name: "ctxdiscipline",
	Run:  runCtxDiscipline,
}

func runCtxDiscipline(pass *Pass) {
	info := pass.Pkg.TypesInfo
	isCtx := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		return obj != nil && obj.Name() == "Context" &&
			obj.Pkg() != nil && obj.Pkg().Path() == "context"
	}
	checkParams := func(ft *ast.FuncType) {
		if ft.Params == nil {
			return
		}
		flat := 0
		for _, field := range ft.Params.List {
			width := len(field.Names)
			if width == 0 {
				width = 1
			}
			if isCtx(field.Type) && flat != 0 {
				pass.Reportf(field.Pos(),
					"context.Context must be the first parameter; move it to the front so the cancellation path stays uniform and grep-able")
			}
			flat += width
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkParams(n.Type)
			case *ast.FuncLit:
				checkParams(n.Type)
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if isCtx(field.Type) {
						pass.Reportf(field.Pos(),
							"context.Context must not be stored in a struct field; pass it as the first parameter of each call that needs it so the deadline cannot outlive its scope")
					}
				}
			}
			return true
		})
	}
}

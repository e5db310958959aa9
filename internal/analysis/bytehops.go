package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ByteHops is a lightweight dimensional-analysis pass over the quantities
// the whole reproduction optimizes: bytes (capacities, line sizes, transfer
// volumes), hops (network distances) and the paper's bytes×hops movement
// objective. Units are inferred from the project's naming conventions —
// identifiers and fields ending in "Bytes"/"bytes" carry the byte unit,
// "Hops"/"hops" the hop unit, and anything containing "movement" (or ending
// in "ByteHops") carries bytes×hops. The analyzer flags the arithmetic that
// silently destroys the objective:
//
//   - additive or comparative mixing of different units (bytes + hops,
//     movement < hops);
//   - multiplying a movement value by bytes or hops again (a
//     double-multiplied cost), or any product whose exponent in one unit
//     exceeds 1 (bytes*bytes feeding a movement figure).
//
// Unknown-unit operands propagate leniently, so ordinary arithmetic on
// unnamed intermediates never trips the check; only expressions where both
// sides carry a known, conflicting unit are reported.
var ByteHops = &Analyzer{
	Name: "bytehops",
	Run:  runByteHops,
}

// unit is a dimension vector: exponents of bytes and hops. The zero value
// (dimensionless) is distinct from "unknown", which is represented by a nil
// *unit.
type unit struct{ bytes, hops int }

func (u unit) String() string {
	switch u {
	case unit{1, 0}:
		return "bytes"
	case unit{0, 1}:
		return "hops"
	case unit{1, 1}:
		return "bytes×hops"
	case unit{0, 0}:
		return "dimensionless"
	}
	parts := []string{}
	if u.bytes != 0 {
		parts = append(parts, fmtExp("bytes", u.bytes))
	}
	if u.hops != 0 {
		parts = append(parts, fmtExp("hops", u.hops))
	}
	return strings.Join(parts, "·")
}

func fmtExp(name string, e int) string {
	if e == 1 {
		return name
	}
	return name + "^" + itoa(e)
}

func itoa(i int) string {
	if i < 0 {
		return "-" + itoa(-i)
	}
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

func runByteHops(pass *Pass) {
	info := pass.Pkg.TypesInfo
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				checkBinary(pass, info, e)
			case *ast.AssignStmt:
				checkAssign(pass, info, e)
			}
			return true
		})
	}
}

// checkBinary enforces the additive/comparative and multiplicative rules on
// one operator node. Nested expressions are visited by the outer walk, so
// each operator is checked exactly once.
func checkBinary(pass *Pass, info *types.Info, e *ast.BinaryExpr) {
	lu := unitOf(info, e.X)
	ru := unitOf(info, e.Y)
	switch e.Op {
	case token.ADD, token.SUB,
		token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		if lu != nil && ru != nil && *lu != *ru {
			pass.Reportf(e.OpPos,
				"unit mismatch: %s %s %s (left is %s, right is %s); convert one side explicitly — bytes and hops only combine through the bytes×hops movement product",
				exprString(pass.Pkg.Fset, e.X), e.Op, exprString(pass.Pkg.Fset, e.Y), lu, ru)
		}
	case token.MUL:
		if lu != nil && ru != nil {
			prod := unit{lu.bytes + ru.bytes, lu.hops + ru.hops}
			if prod.bytes > 1 || prod.hops > 1 {
				pass.Reportf(e.OpPos,
					"double-multiplied unit: %s * %s yields %s; a movement cost is bytes×hops exactly once",
					lu, ru, prod)
			}
		}
	}
}

// checkAssign treats compound assignments (x += y, x -= y) as additions and
// plain assignments as unit transfers that must not change dimension when
// both sides are known.
func checkAssign(pass *Pass, info *types.Info, s *ast.AssignStmt) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return
	}
	lu := unitOf(info, s.Lhs[0])
	ru := unitOf(info, s.Rhs[0])
	if lu == nil || ru == nil {
		return
	}
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.ASSIGN:
		if *lu != *ru {
			pass.Reportf(s.TokPos,
				"unit mismatch: assigning %s into %s %q; movement accumulators take bytes×hops terms only",
				ru, lu, exprString(pass.Pkg.Fset, s.Lhs[0]))
		}
	case token.MUL_ASSIGN:
		prod := unit{lu.bytes + ru.bytes, lu.hops + ru.hops}
		if prod.bytes > 1 || prod.hops > 1 {
			pass.Reportf(s.TokPos,
				"double-multiplied unit: %s *= %s yields %s",
				lu, ru, prod)
		}
	}
}

// unitOf infers the unit of an expression from naming conventions,
// propagating through parentheses, indexing, single-argument conversions and
// unary +/-. nil means unknown.
func unitOf(info *types.Info, e ast.Expr) *unit {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return unitOfName(x.Name)
	case *ast.SelectorExpr:
		// A method value/call is not a quantity; only field selections
		// carry units.
		if sel, ok := info.Selections[x]; ok && sel.Kind() != types.FieldVal {
			return nil
		}
		return unitOfName(x.Sel.Name)
	case *ast.IndexExpr:
		// An element of a movement table / hops slice has the
		// container's unit.
		return unitOf(info, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.ADD || x.Op == token.SUB {
			return unitOf(info, x.X)
		}
	case *ast.CallExpr:
		// Type conversions (int64(movement)) preserve the unit.
		if len(x.Args) == 1 && isConversion(info, x) {
			return unitOf(info, x.Args[0])
		}
	case *ast.BinaryExpr:
		lu := unitOf(info, x.X)
		ru := unitOf(info, x.Y)
		switch x.Op {
		case token.ADD, token.SUB:
			if lu != nil {
				return lu
			}
			return ru
		case token.MUL:
			if lu != nil && ru != nil {
				return &unit{lu.bytes + ru.bytes, lu.hops + ru.hops}
			}
		case token.QUO:
			if lu != nil && ru != nil {
				return &unit{lu.bytes - ru.bytes, lu.hops - ru.hops}
			}
		}
	}
	return nil
}

// unitOfName classifies an identifier by the project naming convention.
func unitOfName(name string) *unit {
	lower := strings.ToLower(name)
	switch {
	case strings.HasSuffix(lower, "bytehops") || strings.HasSuffix(lower, "byteshops") ||
		strings.Contains(lower, "movement"):
		return &unit{1, 1}
	case lower == "bytes" || strings.HasSuffix(lower, "bytes"):
		return &unit{1, 0}
	case lower == "hop" || lower == "hops" || strings.HasSuffix(lower, "hops"):
		return &unit{0, 1}
	}
	return nil
}

// isConversion reports whether call is a type conversion rather than a
// function call.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

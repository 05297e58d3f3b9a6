package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `for range` statements over map types in deterministic
// packages.  Go randomizes map iteration order per range statement, so any
// map walk whose body's effect depends on visit order is a determinism bug
// that single-process equivalence tests cannot reliably catch.
//
// Two escapes exist:
//
//   - The pure key-collect idiom is recognized and allowed: a loop that
//     only appends the key (or values derived from it) to slices, or
//     deletes the key from the ranged map, is order-insensitive by
//     construction because the collected slice is sorted before use (the
//     analyzer cannot see the sort, but an unsorted use of the collected
//     slice is exactly the same bug moved one statement down, and the
//     idiom makes it visible in review).
//   - A `//wormlint:ordered <justification>` comment on (or immediately
//     above) the range statement asserts the body is provably
//     order-insensitive — e.g. copying a map into a map, or summing
//     integers.  The justification is mandatory: a bare marker is
//     reported in place of the finding.  Floating-point accumulation is
//     NOT order-insensitive and never qualifies.
var MapOrder = &Analyzer{
	Name:  "maporder",
	Doc:   "flags nondeterministic iteration over maps in deterministic packages",
	Scope: deterministicScope,
	Run:   runMapOrder,
}

func runMapOrder(p *Pass) error {
	p.walk(func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		// A key-collect loop is order-insensitive by construction: no finding.
		if _, isMap := t.Underlying().(*types.Map); !isMap || keyCollectBlock(p, rs, rs.Body) {
			return true
		}
		if found, _ := p.excused(markerOrdered, rs.Pos(), "a justification explaining why the loop body is order-insensitive is required"); !found {
			p.Reportf(rs.Pos(), "range over map is nondeterministic: iterate sorted keys, use the key-collect idiom, or annotate an order-insensitive body with //wormlint:ordered <why>")
		}
		return true
	})
	return nil
}

// keyCollectBlock reports whether body, the body of rs or of an if within
// it, is the sanctioned key-collect idiom: every statement in it is an append of loop-derived values into a
// slice variable (possibly guarded by if/continue filtering), or a delete
// of the key from the ranged map.  Such a body's observable effect is a
// set, independent of visit order, provided the collected slice is sorted
// before any order-sensitive use.
func keyCollectBlock(p *Pass, rs *ast.RangeStmt, body *ast.BlockStmt) bool {
	for _, st := range body.List {
		if !keyCollectStmt(p, rs, st) {
			return false
		}
	}
	return true
}

func keyCollectStmt(p *Pass, rs *ast.RangeStmt, st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.AssignStmt:
		// x = append(x, ...): the only permitted mutation.
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		lhs, ok := s.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := s.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltin(p, call.Fun, "append") || len(call.Args) < 2 {
			return false
		}
		first, ok := call.Args[0].(*ast.Ident)
		return ok && first.Name == lhs.Name
	case *ast.ExprStmt:
		// delete(m, k) on the ranged map: map clearing/filtering.
		call, ok := s.X.(*ast.CallExpr)
		if !ok || !isBuiltin(p, call.Fun, "delete") || len(call.Args) != 2 {
			return false
		}
		m, ok := call.Args[0].(*ast.Ident)
		rx, okX := rs.X.(*ast.Ident)
		return ok && okX && p.TypesInfo.Uses[m] == p.TypesInfo.Uses[rx]
	case *ast.IfStmt:
		// Filtering: if <cond> { collect } — no else, no init statement.
		if s.Init != nil || s.Else != nil {
			return false
		}
		return keyCollectBlock(p, rs, s.Body)
	case *ast.BranchStmt:
		return s.Tok.String() == "continue" && s.Label == nil
	default:
		return false
	}
}

// isBuiltin reports whether fun is a use of the named Go builtin.
func isBuiltin(p *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

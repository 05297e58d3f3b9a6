package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TraceGuard mechanizes the zero-cost-when-disabled tracing contract: a
// disabled recorder is a nil trace.Recorder, and every emission site in
// the deterministic packages pays for tracing only behind an explicit
// `rec != nil` check.  One unguarded Record call either panics with
// tracing off or — worse — forces the field to hold a non-nil no-op
// recorder, putting an interface call on the per-flit hot path that the
// benchmarks pinned out in PR 5.
//
// The analyzer flags:
//
//   - calls to Record on a value whose static type is the trace.Recorder
//     interface, unless dominated by a nil check of the same expression
//     (an enclosing `if x.rec != nil`, a conjunct of one, or a preceding
//     `if x.rec == nil { return }`), and
//   - calls to an emit helper — a method whose body performs an
//     unguarded Record on a recorder field of its own receiver, the
//     repo's idiom for centralizing Event construction — unless the call
//     is dominated by the matching nil check (caller of s.f.emit must
//     hold s.f.rec != nil).  The helper's internal Record call is the
//     helper's callers' responsibility and is not itself flagged.
//
// A `//wormlint:unguarded <justification>` comment on (or above) the
// call line exempts a site where the recorder is provably non-nil; the
// justification is mandatory.
var TraceGuard = &Analyzer{
	Name:   "traceguard",
	Doc:    "requires rec != nil guards dominating every trace.Recorder emission",
	Scope:  deterministicScope,
	Exempt: "internal/trace",
	Run:    runTraceGuard,
}

func runTraceGuard(p *Pass) error {
	// Phase 1: find the emit helpers — methods with an unguarded Record
	// on a recorder path rooted at their own receiver.  Their suffix
	// (".rec" for a Record on f.rec with receiver f) is what callers must
	// guard, prefixed with the callee expression.
	helpers := make(map[*types.Func]string)
	for _, fd := range p.funcs() {
		fn, _ := p.TypesInfo.Defs[fd.Name].(*types.Func)
		recv := p.recvVar(fd)
		if fn == nil || recv == nil {
			continue
		}
		calls(fd, func(call *ast.CallExpr, stack []ast.Node) {
			x := recordTarget(p, call)
			if x == nil {
				return
			}
			if key, root, fields, ok := pathOf(p, x); ok && root == recv && !guarded(p, stack, key) && helpers[fn] == "" {
				helpers[fn] = "." + strings.Join(fields, ".")
			}
		})
	}

	// Phase 2: flag unguarded Record calls (except a helper's own excused
	// site) and unguarded helper calls.
	for _, fd := range p.funcs() {
		recv := p.recvVar(fd)
		calls(fd, func(call *ast.CallExpr, stack []ast.Node) {
			if x := recordTarget(p, call); x != nil {
				key, root, fields, ok := pathOf(p, x)
				if ok && (guarded(p, stack, key) || root == recv && len(fields) > 0) {
					// Guarded, or the helper's own site: callers guard.
					return
				}
				traceFinding(p, call, "trace.Recorder emission")
				return
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return
			}
			fn, _ := p.TypesInfo.Uses[sel.Sel].(*types.Func)
			suffix, isHelper := helpers[fn]
			if !isHelper {
				return
			}
			if key, _, _, ok := pathOf(p, sel.X); !ok || !guarded(p, stack, key+suffix) {
				traceFinding(p, call, fmt.Sprintf("call to emit helper %s", fn.Name()))
			}
		})
	}
	return nil
}

// recordTarget returns x when call is x.Record(...) on a trace.Recorder,
// else nil.
func recordTarget(p *Pass, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Record" || !isRecorderType(p.TypesInfo.TypeOf(sel.X)) {
		return nil
	}
	return sel.X
}

func traceFinding(p *Pass, call *ast.CallExpr, what string) {
	if found, _ := p.excused(markerUnguarded, call.Pos(), "a justification explaining why the recorder is provably non-nil here is required"); !found {
		p.Reportf(call.Pos(), "%s is not dominated by a rec != nil guard: wrap it in `if <rec> != nil { ... }` or annotate with //wormlint:unguarded <why>", what)
	}
}

// calls walks fd's body and hands fn every call together with its
// ancestors, the call last.
func calls(fd *ast.FuncDecl, fn func(call *ast.CallExpr, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if call, ok := n.(*ast.CallExpr); ok {
			fn(call, stack)
		}
		return true
	})
}

// guarded reports whether the last node of stack runs only while the
// recorder path key is non-nil: it sits in the body of an enclosing
// `if key != nil` (or of an if with such a conjunct), in the else branch
// of an enclosing `if key == nil`, or after an `if key == nil { return }`
// earlier in an enclosing block.  The check stops at a function literal:
// the closure may run after the guard's scope.
func guarded(p *Pass, stack []ast.Node, key string) bool {
	for i := len(stack) - 1; i > 0; i-- {
		child := stack[i]
		var before []ast.Stmt
		switch parent := stack[i-1].(type) {
		case *ast.FuncLit:
			return false
		case *ast.IfStmt:
			if child == parent.Body && nilTest(p, parent.Cond, key, true) ||
				child == parent.Else && nilTest(p, parent.Cond, key, false) {
				return true
			}
		case *ast.BlockStmt:
			before = parent.List
		case *ast.CaseClause:
			before = parent.Body
		}
		for _, s := range before {
			if s == child {
				break
			}
			if is, ok := s.(*ast.IfStmt); ok && terminates(is.Body) && nilTest(p, is.Cond, key, false) {
				return true
			}
		}
	}
	return false
}

// nilTest reports whether cond tests the path key against nil: with neq,
// whether a conjunct of cond (split across &&) is `key != nil`; without,
// whether cond is exactly `key == nil`.
func nilTest(p *Pass, cond ast.Expr, key string, neq bool) bool {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if neq && b.Op == token.LAND {
		return nilTest(p, b.X, key, true) || nilTest(p, b.Y, key, true)
	}
	op := token.EQL
	if neq {
		op = token.NEQ
	}
	if b.Op != op {
		return false
	}
	x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
	if isNilIdent(p, x) {
		x, y = y, x
	}
	k, _, _, ok := pathOf(p, x)
	return ok && isNilIdent(p, y) && k == key
}

func isNilIdent(p *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}

// pathOf renders a selector chain rooted at a plain identifier into a
// stable key (root object identity + field names), also returning the
// root object and field list.
func pathOf(p *Pass, e ast.Expr) (key string, root types.Object, fields []string, ok bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := p.TypesInfo.Uses[x]
		if obj == nil {
			obj = p.TypesInfo.Defs[x]
		}
		if obj == nil {
			return "", nil, nil, false
		}
		return fmt.Sprintf("%p", obj), obj, nil, true
	case *ast.SelectorExpr:
		base, r, fs, bok := pathOf(p, x.X)
		if !bok {
			return "", nil, nil, false
		}
		fs = append(fs, x.Sel.Name)
		return base + "." + x.Sel.Name, r, fs, true
	}
	return "", nil, nil, false
}

// isRecorderType reports whether t is the trace.Recorder interface.
func isRecorderType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Recorder" || named.Obj().Pkg() == nil {
		return false
	}
	if _, isIface := named.Underlying().(*types.Interface); !isIface {
		return false
	}
	return under(named.Obj().Pkg().Path(), "internal/trace")
}

// terminates reports whether a block's last statement unconditionally
// leaves the enclosing block (return, branch, or panic).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

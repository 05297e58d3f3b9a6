package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// PoolReset guards the object-pooling discipline the zero-alloc contract
// invites: Event structs cycle through the eventq free list, Worms
// through flit.WormPool, streams and input ports are reset in place.  A
// hand-written reset that misses one field leaks state from a previous
// occupant into the next — the classic stale-state bug, invisible to
// tests until a rare interleaving makes the leftover value load-bearing,
// and a direct threat to replay determinism.
//
// In the zero-alloc packages, a function or method named exactly Reset,
// reset, Recycle, recycle, Get, or get that performs field assignments on
// a pointer to a package-local struct is a whole-object reset by
// contract (partial resets must take other names, e.g. resetRx).  Its
// target is the variable receiving the most field writes (ties prefer
// the receiver).  The analyzer requires it to assign every field of the
// target's type that the package mutates outside its constructors
// (New*/new*) and outside the type's reset functions themselves — fields
// written only at construction are identity, not state.  Coverage
// follows same-package calls on the target, so a reset that delegates
// (in.setMode(pmIdle)) gets credit for the fields the callee assigns,
// and a whole-struct assignment `*x = T{...}` covers every field at
// once.
//
// A `//wormlint:keep <justification>` comment on the struct field's
// declaration exempts state that deliberately survives recycling; the
// justification is mandatory.
var PoolReset = &Analyzer{
	Name:  "poolreset",
	Doc:   "verifies pool reset/recycle functions assign every mutated field",
	Scope: allocScope,
	Run:   runPoolReset,
}

// resetNames are the exact function names the pooling contract reserves
// for whole-object resets.
var resetNames = map[string]bool{
	"Reset": true, "reset": true,
	"Recycle": true, "recycle": true,
	"Get": true, "get": true,
}

func runPoolReset(p *Pass) error {
	pr := newPoolReset(p)

	// Identify every candidate: (reset function, target variable, type).
	type candidate struct {
		fd     *ast.FuncDecl
		target *types.Var
		typ    *types.Named
	}
	var candidates []candidate
	resetFuncs := make(map[*types.Named]map[*ast.FuncDecl]bool)
	for _, fd := range pr.funcs {
		if !resetNames[fd.Name.Name] {
			continue
		}
		target := pr.resetTarget(fd)
		if target == nil {
			continue
		}
		named := localStructType(p, target.Type())
		candidates = append(candidates, candidate{fd, target, named})
		if resetFuncs[named] == nil {
			resetFuncs[named] = make(map[*ast.FuncDecl]bool)
		}
		resetFuncs[named][fd] = true
	}

	for _, c := range candidates {
		required := pr.mutatedFields(c.typ, resetFuncs[c.typ])
		covered, all := pr.assignedFields(c.fd, c.target, nil)
		if all {
			continue
		}
		var missing []string
		for f := range required {
			if !covered[f] {
				missing = append(missing, f)
			}
		}
		sort.Strings(missing)
		var unexcused []string
		for _, f := range missing {
			if found, _ := p.excused(markerKeep, fieldPos(c.typ, f), "a justification explaining why the field may survive pool recycling is required"); !found {
				unexcused = append(unexcused, f)
			}
		}
		if len(unexcused) > 0 {
			p.Reportf(c.fd.Pos(), "reset function %s leaves %s of %s unassigned: stale state survives pool recycling — assign the field(s) or annotate the declaration(s) with //wormlint:keep <why>",
				c.fd.Name.Name, fieldList(unexcused), c.typ.Obj().Name())
		}
	}
	return nil
}

func fieldList(names []string) string {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = "field " + n
	}
	if len(quoted) == 1 {
		return quoted[0]
	}
	return strings.Join(quoted[:len(quoted)-1], ", ") + " and " + quoted[len(quoted)-1]
}

type poolReset struct {
	p     *Pass
	funcs []*ast.FuncDecl
	// decl maps function objects to their declarations for transitive
	// coverage through same-package calls.
	decl map[*types.Func]*ast.FuncDecl
}

func newPoolReset(p *Pass) *poolReset {
	pr := &poolReset{p: p, funcs: p.funcs(), decl: make(map[*types.Func]*ast.FuncDecl)}
	for _, fd := range pr.funcs {
		if fn, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			pr.decl[fn] = fd
		}
	}
	return pr
}

// resetTarget picks the variable a reset function resets: the receiver,
// parameter, or local of pointer-to-package-local-struct type with the
// most direct field writes in the body (ties prefer the receiver).
func (pr *poolReset) resetTarget(fd *ast.FuncDecl) *types.Var {
	p := pr.p
	writes := make(map[*types.Var]int)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		for _, lhs := range assigned(n) {
			if v, _, ok := pr.fieldWrite(lhs); ok {
				writes[v]++
			}
			// `*x = T{...}`: a whole-struct reset counts as writing
			// every field.
			if v := pr.starVar(lhs); v != nil {
				if named := localStructType(p, v.Type()); named != nil {
					writes[v] += named.Underlying().(*types.Struct).NumFields()
				}
			}
		}
		return true
	})
	recv := p.recvVar(fd)
	// Deterministic selection: highest write count wins, the receiver
	// breaks ties, then the lexicographically smallest name.
	var best *types.Var
	better := func(v *types.Var) bool {
		if best == nil || writes[v] != writes[best] {
			return best == nil || writes[v] > writes[best]
		}
		if (v == recv) != (best == recv) {
			return v == recv
		}
		return v.Name() < best.Name()
	}
	for v := range writes { // order-insensitive: better() is a total order over candidates
		if localStructType(p, v.Type()) == nil {
			continue
		}
		if better(v) {
			best = v
		}
	}
	return best
}

// assigned returns the expressions n assigns to: the left-hand sides of a
// plain assignment, or the operand of an inc/dec statement.
func assigned(n ast.Node) []ast.Expr {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if s.Tok != token.DEFINE {
			return s.Lhs
		}
	case *ast.IncDecStmt:
		return []ast.Expr{s.X}
	}
	return nil
}

// fieldSel returns e as the selector id.f of an assignment to id.f or
// id.f[i], else nil.
func fieldSel(e ast.Expr) *ast.SelectorExpr {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	sel, _ := e.(*ast.SelectorExpr)
	return sel
}

// fieldWrite decomposes an assignable expression of the form id.f or
// id.f[i] into (root variable, field name).
func (pr *poolReset) fieldWrite(e ast.Expr) (*types.Var, string, bool) {
	sel := fieldSel(e)
	if sel == nil {
		return nil, "", false
	}
	v := pr.identVar(sel.X)
	if v == nil {
		return nil, "", false
	}
	return v, sel.Sel.Name, true
}

// starVar returns x when e is `*x`, else nil.
func (pr *poolReset) starVar(e ast.Expr) *types.Var {
	if star, ok := ast.Unparen(e).(*ast.StarExpr); ok {
		return pr.identVar(star.X)
	}
	return nil
}

func (pr *poolReset) identVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pr.p.TypesInfo.Uses[id].(*types.Var)
	if v == nil {
		v, _ = pr.p.TypesInfo.Defs[id].(*types.Var)
	}
	return v
}

// localStructType returns t (or *t) as a named struct type declared in
// the analyzed package, else nil.
func localStructType(p *Pass, t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != p.Pkg {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// mutatedFields returns the fields of typ assigned anywhere in the
// package outside constructors and outside typ's own reset functions:
// the state a reset must restore.
func (pr *poolReset) mutatedFields(typ *types.Named, exclude map[*ast.FuncDecl]bool) map[string]bool {
	mutated := make(map[string]bool)
	for _, fd := range pr.funcs {
		if exclude[fd] || isConstructorName(fd.Name.Name) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			for _, lhs := range assigned(n) {
				if sel := fieldSel(lhs); sel != nil && localStructType(pr.p, pr.p.TypesInfo.TypeOf(sel.X)) == typ {
					mutated[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return mutated
}

// assignedFields returns the fields of v's type the function assigns,
// following same-package calls that receive v (as receiver or argument).
// all is true when a whole-struct assignment covers every field.
func (pr *poolReset) assignedFields(fd *ast.FuncDecl, v *types.Var, seen map[*ast.FuncDecl]bool) (fields map[string]bool, all bool) {
	if seen == nil {
		seen = make(map[*ast.FuncDecl]bool)
	}
	if seen[fd] {
		return nil, false
	}
	seen[fd] = true
	fields = make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if all {
			return false
		}
		for _, lhs := range assigned(n) {
			if fv, name, ok := pr.fieldWrite(lhs); ok && fv == v {
				fields[name] = true
			}
			if pr.starVar(lhs) == v {
				all = true
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, inner := pr.callee(call, v)
		if callee == nil {
			return true
		}
		sub, subAll := pr.assignedFields(callee, inner, seen)
		if subAll {
			all = true
			return false
		}
		for f := range sub {
			fields[f] = true
		}
		return true
	})
	return fields, all
}

// callee matches a call that hands v to a same-package function — v.m(...)
// or f(..., v, ...) — and returns the function's declaration and its
// variable (receiver or parameter) bound to v.
func (pr *poolReset) callee(call *ast.CallExpr, v *types.Var) (*ast.FuncDecl, *types.Var) {
	var fn *types.Func
	var inner *types.Var
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, _ = pr.p.TypesInfo.Uses[fun.Sel].(*types.Func); fn != nil && pr.identVar(fun.X) == v {
			inner = fn.Type().(*types.Signature).Recv()
		}
	case *ast.Ident:
		if fn, _ = pr.p.TypesInfo.Uses[fun].(*types.Func); fn == nil {
			break
		}
		params := fn.Type().(*types.Signature).Params()
		for i, arg := range call.Args {
			if pr.identVar(arg) == v {
				if i < params.Len() {
					inner = params.At(i)
				}
				break
			}
		}
	}
	if fd := pr.decl[fn]; fd != nil && inner != nil {
		return fd, inner
	}
	return nil, nil
}

// fieldPos locates the declaration of typ's field, for keep markers;
// falls back to the type's position.
func fieldPos(typ *types.Named, field string) token.Pos {
	st := typ.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == field {
			return st.Field(i).Pos()
		}
	}
	return typ.Obj().Pos()
}

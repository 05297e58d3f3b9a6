package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc guards the zero-alloc discipline in the hot-path packages.  The
// AllocsPerRun pin proves the steady state allocates nothing, but it cannot
// point at the line that breaks it; this analyzer keeps each allocation
// site visible and justified so a regression is caught in review, not
// bisected out of a failing benchmark.
//
// Flagged constructs:
//
//   - make, new, and pointer-to-composite-literal expressions (&T{...}):
//     a heap allocation on every call.
//   - slice and map composite literals: same, under literal syntax.
//   - append whose destination slice was born empty in the enclosing
//     function (a `var x []T` declaration, an `x := []T{...}` literal, or
//     a named result parameter): such an append re-grows a fresh backing
//     array on every call.  Appending into a struct field, a parameter,
//     or a re-sliced buffer (`append(x[:0], ...)`) is amortized reuse and
//     is not flagged.
//
// Two escapes exist:
//
//   - Constructors — functions whose name starts with New or new — are
//     exempt wholesale: construction runs once per fabric or session,
//     never per worm.
//   - A `//wormlint:alloc <justification>` comment on (or immediately
//     above) the allocating line exempts that site; placed on the line
//     above a func declaration it exempts the whole function (snapshots,
//     diagnostics, fault paths).  The justification is mandatory: a bare
//     line marker is reported in place of its finding, and a bare
//     function marker is reported and exempts nothing.
var HotAlloc = &Analyzer{
	Name:  "hotalloc",
	Doc:   "flags per-call heap allocations in the zero-alloc packages",
	Scope: allocScope,
	Run:   runHotAlloc,
}

func runHotAlloc(p *Pass) error {
	type site struct {
		pos  token.Pos
		what string
	}
	for _, fd := range p.funcs() {
		if isConstructorName(fd.Name.Name) {
			continue
		}
		var open []site
		allocSites(p, fd, func(pos token.Pos, what string) {
			if found, _ := p.excused(markerAlloc, pos, "a justification for the allocation is required"); !found {
				open = append(open, site{pos, what})
			}
		})
		if len(open) == 0 {
			continue
		}
		// A marker above the func excuses every site left, but only when
		// justified: a bare one is reported and excuses nothing.
		if _, ok := p.excused(markerAlloc, fd.Pos(), "a justification explaining why this function may allocate is required"); ok {
			continue
		}
		for _, s := range open {
			p.Reportf(s.pos, "%s in a zero-alloc package: reuse a field, pooled buffer, or preallocated slab, or annotate with //wormlint:alloc <why>", s.what)
		}
	}
	return nil
}

// isConstructorName reports whether name marks a constructor by the
// repo's convention (New*/new*): construction-time allocation is the
// sanctioned way to pre-size every buffer the hot path later reuses.
func isConstructorName(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new")
}

// allocSites calls site for every per-call heap allocation in fd's body.
func allocSites(p *Pass, fd *ast.FuncDecl, site func(pos token.Pos, what string)) {
	born := emptyBornSlices(p, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := e.X.(*ast.CompositeLit); ok {
					site(e.Pos(), "composite literal escapes to the heap per call")
				}
			}
		case *ast.CompositeLit:
			t := p.TypesInfo.TypeOf(e)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				site(e.Pos(), "slice literal allocates per call")
			case *types.Map:
				site(e.Pos(), "map literal allocates per call")
			}
		case *ast.CallExpr:
			switch {
			case isBuiltin(p, e.Fun, "make"):
				site(e.Pos(), "make allocates per call")
			case isBuiltin(p, e.Fun, "new"):
				site(e.Pos(), "new allocates per call")
			case isBuiltin(p, e.Fun, "append") && len(e.Args) >= 2:
				id, ok := e.Args[0].(*ast.Ident)
				if !ok {
					return true
				}
				if v, ok := p.TypesInfo.Uses[id].(*types.Var); ok && born[v] {
					site(e.Pos(), "append to a slice born empty in this function re-grows the heap per call")
				}
			}
		}
		return true
	})
}

// emptyBornSlices collects the slice variables that start life empty
// inside fd: `var x []T` declarations, `x := []T{...}` literals, and
// named result parameters.  Appending to one of those allocates a fresh
// backing array on every call, unlike appending into a reused field,
// parameter, or re-sliced buffer.
func emptyBornSlices(p *Pass, fd *ast.FuncDecl) map[*types.Var]bool {
	born := make(map[*types.Var]bool)
	add := func(id *ast.Ident) {
		if v, ok := p.TypesInfo.Defs[id].(*types.Var); ok && v != nil {
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				born[v] = true
			}
		}
	}
	if fd.Type.Results != nil {
		for _, fld := range fd.Type.Results.List {
			for _, name := range fld.Names {
				add(name)
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) > 0 {
					continue
				}
				for _, name := range vs.Names {
					add(name)
				}
			}
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE || len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if _, isLit := s.Rhs[i].(*ast.CompositeLit); isLit {
					add(id)
				}
			}
		}
		return true
	})
	return born
}

package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// seedForbiddenImports are the randomness sources that bypass the
// simulator's seed discipline.  math/rand's global functions share hidden
// mutable state across call sites; crypto/rand is nondeterministic by
// design.  All simulator randomness flows through internal/rng, whose
// PCG streams are seeded from config/sweep identity.
var seedForbiddenImports = map[string]string{
	"math/rand":    "use internal/rng seeded from config/sweep identity",
	"math/rand/v2": "use internal/rng seeded from config/sweep identity",
	"crypto/rand":  "cryptographic randomness is nondeterministic and has no place in the simulator",
}

// SeedDiscipline enforces that all randomness flows through internal/rng
// with seeds derived from configuration, never hard-coded.  It flags
// imports of math/rand (v1 and v2) and crypto/rand in deterministic
// packages, and calls of internal/rng constructors whose seed argument is
// a bare compile-time constant: a literal seed hides a workload identity
// inside code where no sweep or config can vary it, and two call sites
// with the same literal silently correlate their streams.  (Literal
// stream selectors — the second rng.New argument — are fine and
// idiomatic: streams deliberately partition one seed's sequence space.)
var SeedDiscipline = &Analyzer{
	Name:  "seeddiscipline",
	Doc:   "randomness must flow through internal/rng, seeded from config/sweep identity",
	Scope: deterministicScope,
	Run:   runSeedDiscipline,
}

func runSeedDiscipline(p *Pass) error {
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, bad := seedForbiddenImports[path]; bad {
				p.Reportf(imp.Pos(), "import of %s breaks seed discipline: %s", path, why)
			}
		}
	}
	p.walk(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || !under(fn.Pkg().Path(), "internal/rng") {
			return true
		}
		// Constructors take the seed as their first argument; methods on an
		// already-seeded source draw from it and are always fine.
		if fn.Type().(*types.Signature).Recv() != nil {
			return true
		}
		seed := call.Args[0]
		if tv, ok := p.TypesInfo.Types[seed]; ok && tv.Value != nil {
			p.Reportf(seed.Pos(), "bare constant seed in rng.%s call: derive the seed from config/sweep identity so workloads stay addressable", fn.Name())
		}
		return true
	})
	return nil
}

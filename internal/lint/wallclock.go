package lint

import (
	"go/ast"
	"go/types"
)

// wallclockForbidden lists the package time functions that read or depend
// on the host clock.  Pure types and arithmetic (time.Duration,
// time.Millisecond, ...) remain legal: they describe durations without
// sampling the wall.
var wallclockForbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// WallClock forbids reading the host clock inside the deterministic
// packages.  Simulation time is des.Time, advanced only by the event
// kernel; a wall-clock read anywhere in sim-core makes results depend on
// host speed and scheduling.  The sweep engine and the benchmark CLIs are
// out of scope by construction and keep their progress/elapsed timing.
var WallClock = &Analyzer{
	Name:  "wallclock",
	Doc:   "forbids time.Now/Since/Sleep and timers in deterministic packages",
	Scope: deterministicScope,
	Run:   runWallClock,
}

func runWallClock(p *Pass) error {
	p.walk(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return true
		}
		if wallclockForbidden[fn.Name()] {
			p.Reportf(sel.Pos(), "time.%s reads the host clock: deterministic code must use des.Time simulation time", fn.Name())
		}
		return true
	})
	return nil
}

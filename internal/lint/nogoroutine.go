package lint

import (
	"go/ast"
	"go/types"
)

// NoGoroutine forbids concurrency primitives inside the deterministic
// kernel packages: `go` statements, channel sends/receives, select, range
// over a channel, close, and make(chan).  One simulation is one goroutine
// by design — event ordering is governed entirely by the DES kernel's
// (time, sequence) priority queue, and any intra-simulation concurrency
// would subject results to the scheduler.  Parallelism lives one layer
// up, in internal/sweep, which runs independent simulations on worker
// goroutines and is out of scope by construction.
var NoGoroutine = &Analyzer{
	Name:  "nogoroutine",
	Doc:   "forbids go statements and channel operations in the deterministic kernel",
	Scope: deterministicScope,
	Run:   runNoGoroutine,
}

func runNoGoroutine(p *Pass) error {
	p.walk(func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			p.Reportf(s.Pos(), "go statement in deterministic kernel: one simulation is one goroutine; parallelism belongs to internal/sweep")
		case *ast.SendStmt:
			p.Reportf(s.Pos(), "channel send in deterministic kernel: event ordering belongs to the DES kernel, not the scheduler")
		case *ast.UnaryExpr:
			if s.Op.String() == "<-" {
				p.Reportf(s.Pos(), "channel receive in deterministic kernel: event ordering belongs to the DES kernel, not the scheduler")
			}
		case *ast.SelectStmt:
			p.Reportf(s.Pos(), "select in deterministic kernel: event ordering belongs to the DES kernel, not the scheduler")
		case *ast.RangeStmt:
			if t := p.TypesInfo.TypeOf(s.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					p.Reportf(s.Pos(), "range over channel in deterministic kernel: event ordering belongs to the DES kernel, not the scheduler")
				}
			}
		case *ast.CallExpr:
			if isBuiltin(p, s.Fun, "close") {
				p.Reportf(s.Pos(), "close of channel in deterministic kernel: channels have no place in sim-core")
			}
			if isBuiltin(p, s.Fun, "make") && len(s.Args) > 0 {
				if t := p.TypesInfo.TypeOf(s.Args[0]); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						p.Reportf(s.Pos(), "make(chan) in deterministic kernel: channels have no place in sim-core")
					}
				}
			}
		}
		return true
	})
	return nil
}

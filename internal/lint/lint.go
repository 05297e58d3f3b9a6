// Package lint is wormlint: a suite of static analyzers that enforce the
// simulator's determinism contract.
//
// The whole reproduction rests on bit-for-bit determinism: the sweep
// engine promises byte-identical rows at any worker count, the chaos
// harness asserts that seeded failure storms replay exactly, and every
// golden result file is a hash of the simulator's behaviour.  That
// contract is easy to break silently — one `for range` over a Go map in a
// hot path, one wall-clock read in the DES kernel — and no amount of
// after-the-fact equivalence testing can prove its absence.  wormlint
// makes the contract machine-checked.
//
// Nine analyzers run, each over the packages its Scope names; the first
// four guard determinism over the deterministic packages, hotalloc and
// poolreset guard the zero-alloc pooling discipline, and the remaining
// three enforce repo-specific API contracts:
//
//   - maporder: flags `for range` over map types unless the loop is a
//     pure key-collect (append keys to a slice, to be sorted) or carries
//     a `//wormlint:ordered <justification>` comment for loops whose
//     bodies are provably order-insensitive.
//   - wallclock: forbids time.Now/Since/Sleep and timers in sim-core;
//     simulation time is des.Time, never the host clock.  The sweep
//     engine and benchmark CLIs keep their progress timing (out of
//     scope by construction).
//   - seeddiscipline: all randomness flows through internal/rng, seeded
//     from config/sweep identity.  Imports of math/rand (v1 or v2) and
//     crypto/rand are flagged, as are rng constructors called with a
//     bare literal seed.
//   - nogoroutine: the deterministic kernel is single-threaded; `go`
//     statements, channel operations, and select have no place in it.
//     Concurrency belongs to internal/sweep, which runs whole
//     simulations in parallel, never one simulation concurrently.
//   - hotalloc: guards the zero-alloc discipline
//     (network.TestDeliveredWormZeroAlloc) in the hot-path packages:
//     per-call heap allocations — make/new, escaping composite literals,
//     append growth on slices born empty in the function — must sit in a
//     constructor or carry a `//wormlint:alloc <justification>` comment.
//   - poolreset: a pooled object's reset/recycle function must assign
//     every field the package mutates elsewhere, or annotate the skipped
//     field with `//wormlint:keep <justification>` — stale state must
//     not survive pool recycling.
//   - portbyte: VC route bytes are encoded and decoded only by
//     internal/route (EncodeVCPort/DecodeVCPort); hand-rolled `<<6`,
//     `>>6`, `&0x3f`, `&0xc0` arithmetic on bytes elsewhere is flagged.
//   - traceguard: every trace.Recorder emission (direct Record call or
//     call to an emit helper) must be dominated by a `rec != nil` guard
//     on the same recorder, so tracing stays free when disabled.
//   - kindswitch: switches over the registered enum types (flit.Kind,
//     flit.Mode, trace.Kind, fault.Kind) must be exhaustive, carry a
//     default, or carry `//wormlint:partial <justification>`.
//
// Every //wormlint:* escape hatch is tracked: `wormlint -audit` inverts
// the suite and reports markers that no longer suppress any diagnostic
// (plus unknown marker names), so the annotations cannot rot.
//
// The suite is stdlib-only (go/ast + go/types); it deliberately does not
// depend on golang.org/x/tools so the repo stays dependency-free.
// cmd/wormlint exposes it standalone and as a `go vet -vettool`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check.  The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite could be rebased
// onto x/tools without touching the checks themselves.  Scope and Exempt
// are wormlint's own: runSuite runs an analyzer only over the packages
// under one of its Scope suffixes and not under Exempt.
type Analyzer struct {
	Name   string
	Doc    string
	Scope  []string
	Exempt string
	Run    func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package and a sink
// for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's non-test source files.  Test files are
	// type-checked as part of the unit but never analyzed: the contract
	// governs the simulator, not its test harnesses.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// markers indexes the package's //wormlint:* annotations, shared by
	// every pass over the package so use-tracking (for -audit)
	// accumulates across the whole suite.
	markers markerSet
}

// A Diagnostic is one finding, positioned for file:line:col display.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzers is the full wormlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder, WallClock, SeedDiscipline, NoGoroutine, HotAlloc,
		PoolReset, PortByte, TraceGuard, KindSwitch,
	}
}

// Lookup returns the analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunPackage runs the given analyzers over one type-checked package and
// returns the diagnostics sorted by position.  files must belong to fset;
// test files (name ending in _test.go) are filtered out here.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	_, err := runSuite(fset, files, pkg, info, analyzers, func(d Diagnostic) { diags = append(diags, d) })
	sortDiagnostics(fset, diags)
	return diags, err
}

// runSuite is the one pass loop: it runs each analyzer whose scope covers
// pkg over its non-test files and returns the package's markers, their use
// bits set by the run.
func runSuite(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, report func(Diagnostic)) (markerSet, error) {
	var nonTest []*ast.File
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go") {
			nonTest = append(nonTest, f)
		}
	}
	markers := collectMarkers(fset, nonTest)
	for _, a := range analyzers {
		if !under(pkg.Path(), a.Scope...) || (a.Exempt != "" && under(pkg.Path(), a.Exempt)) {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: fset, Files: nonTest, Pkg: pkg, TypesInfo: info, Report: report, markers: markers}
		if err := a.Run(pass); err != nil {
			return markers, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return markers, nil
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	// Insertion sort by (file, offset, analyzer): diagnostic counts are
	// tiny and this keeps the package free of sort-interface boilerplate.
	less := func(a, b Diagnostic) bool {
		pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		if pa.Offset != pb.Offset {
			return pa.Offset < pb.Offset
		}
		return a.Analyzer < b.Analyzer
	}
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && less(diags[j], diags[j-1]); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

// walk applies fn to every node of every (non-test) file of the pass.
func (p *Pass) walk(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// funcs returns the pass's function declarations that have a body.
func (p *Pass) funcs() []*ast.FuncDecl {
	var fds []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fds = append(fds, fd)
			}
		}
	}
	return fds
}

// recvVar returns fd's named receiver, or nil for plain functions and
// anonymous receivers.
func (p *Pass) recvVar(fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := p.TypesInfo.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return v
}

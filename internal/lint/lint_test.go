package lint

import (
	"strings"
	"testing"
)

func TestMapOrderGolden(t *testing.T) {
	runAnalyzers(t, "a/internal/sim", MapOrder)
}

func TestWallClockGolden(t *testing.T) {
	runAnalyzers(t, "a/internal/des", WallClock)
}

func TestSeedDisciplineGolden(t *testing.T) {
	runAnalyzers(t, "a/internal/traffic", SeedDiscipline)
}

func TestNoGoroutineGolden(t *testing.T) {
	runAnalyzers(t, "a/internal/eventq", NoGoroutine)
}

func TestHotAllocGolden(t *testing.T) {
	runAnalyzers(t, "a/internal/network", HotAlloc)
}

func TestPoolResetGolden(t *testing.T) {
	runAnalyzers(t, "b/internal/eventq", PoolReset)
}

func TestPortByteGolden(t *testing.T) {
	runAnalyzers(t, "b/internal/network", PortByte)
}

func TestTraceGuardGolden(t *testing.T) {
	runAnalyzers(t, "b/internal/adapter", TraceGuard)
}

func TestKindSwitchGolden(t *testing.T) {
	runAnalyzers(t, "b/internal/sim", KindSwitch)
}

// TestRouteExemptFromPortByte: the codec package itself owns the bit
// layout; the same expressions that are contraband elsewhere are its
// implementation.
func TestRouteExemptFromPortByte(t *testing.T) {
	runAnalyzers(t, "b/internal/route", PortByte)
}

// TestAuditPackage runs the audit mode over a package holding one live
// marker, one stale marker, one unknown marker name, and one bare marker
// on a key-collect loop, and expects the last three flagged, at the
// marker lines, in line order.  The bare marker sits on a loop with no
// finding, so it excuses nothing: the audit, not the default run, is
// where it shows up.
func TestAuditPackage(t *testing.T) {
	l := newTestLoader(t)
	p := l.load("b/internal/updown")
	if p.err != nil {
		t.Fatalf("loading testdata: %v", p.err)
	}
	diags, err := AuditPackage(l.fset, p.files, p.pkg, p.info, Analyzers())
	if err != nil {
		t.Fatalf("AuditPackage: %v", err)
	}
	want := []struct {
		line int
		frag string
	}{
		{18, "stale //wormlint:ordered marker"},
		{25, "unknown //wormlint:bogus marker"},
		{31, "bare //wormlint:ordered marker excuses no maporder diagnostic"},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d audit diagnostics, want %d: %v", len(diags), len(want), diags)
	}
	for i, w := range want {
		pos := l.fset.Position(diags[i].Pos)
		if pos.Line != w.line || !strings.Contains(diags[i].Message, w.frag) {
			t.Errorf("diag %d = %s:%d %q, want line %d containing %q",
				i, pos.Filename, pos.Line, diags[i].Message, w.line, w.frag)
		}
		if diags[i].Analyzer != "audit" {
			t.Errorf("diag %d analyzer = %q, want %q", i, diags[i].Analyzer, "audit")
		}
	}
}

// TestSweepAllowlist runs the ENTIRE suite over a package shaped like the
// real sweep engine — wall-clock timing, goroutines, channels, math/rand,
// unordered map walks — and expects zero diagnostics: concurrency and
// progress timing belong to the sweep layer by design, and the analyzers
// must stay scoped to the deterministic packages.
func TestSweepAllowlist(t *testing.T) {
	runAnalyzers(t, "a/internal/sweep", Analyzers()...)
}

// TestRngExemptFromSeedDiscipline: the sanctioned randomness package
// itself is where seeds terminate; it must not be flagged.
func TestRngExemptFromSeedDiscipline(t *testing.T) {
	runAnalyzers(t, "a/internal/rng", Analyzers()...)
}

func TestScope(t *testing.T) {
	for path, want := range map[string]bool{
		"wormlan/internal/sim":                    true,
		"wormlan/internal/des":                    true,
		"wormlan/internal/adapter":                true,
		"wormlan/internal/arb":                    true,
		"wormlan/internal/vcroute":                true,
		"wormlan/internal/sweep":                  false,
		"wormlan/internal/emu":                    true,
		"wormlan/internal/lint":                   false,
		"wormlan/cmd/mcbench":                     false,
		"internal/sim":                            true,
		"wormlan/internal/sim [wormlan/sim.test]": true,
		"wormlan/internal/simx":                   false,
		"example.com/other/internal/eventq":       true,
		"wormlan/internal/sweep [wormlan/s.test]": false,
	} {
		if got := under(path, deterministicScope...); got != want {
			t.Errorf("under(%q, deterministicScope...) = %v, want %v", path, got, want)
		}
	}
	if !under("wormlan/internal/rng", "internal/rng") || under("wormlan/internal/rngx", "internal/rng") || under("wormlan/internal/sim", "internal/rng") {
		t.Error("under misclassifies internal/rng")
	}
	for path, want := range map[string]bool{
		"wormlan/internal/network":  true,
		"wormlan/internal/flit":     true,
		"wormlan/internal/des":      true,
		"wormlan/internal/eventq":   true,
		"wormlan/internal/adapter":  false,
		"wormlan/internal/sweep":    false,
		"wormlan/internal/networkx": false,
	} {
		if got := under(path, allocScope...); got != want {
			t.Errorf("under(%q, allocScope...) = %v, want %v", path, got, want)
		}
	}
}

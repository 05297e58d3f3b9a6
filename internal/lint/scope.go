package lint

import (
	"strings"
)

// deterministicScope lists the package path suffixes whose code must obey
// the determinism contract: everything that executes between des.Kernel
// event dispatches, plus the harness code whose formatted output lands in
// golden files and test assertions.
//
// internal/sweep and the cmd/ binaries are deliberately absent: the sweep
// engine owns all concurrency and progress timing (it parallelizes whole
// simulations, each of which is deterministic), and the CLIs may report
// wall-clock elapsed time.  internal/rng is absent from seed checks
// because it is the sanctioned randomness implementation.
var deterministicScope = []string{
	"internal/des",
	"internal/eventq",
	"internal/network",
	"internal/adapter",
	"internal/switchmc",
	"internal/multicast",
	"internal/sim",
	"internal/fault",
	"internal/liveness",
	"internal/updown",
	"internal/route",
	"internal/vcroute",
	"internal/arb",
	"internal/core",
	"internal/emu",
	// Beyond the contract's original kernel list: these feed the kernel
	// deterministically (topology/route construction, traffic draws,
	// statistics, the distributed mapper) or assert over its state
	// (faulttest), so their output is equally golden.
	"internal/flit",
	"internal/topology",
	"internal/traffic",
	"internal/mapper",
	"internal/stats",
	"internal/ipmap",
	"internal/faulttest",
	// The observability layer records from inside the simulation tick and
	// its exported traces are compared byte-for-byte across runs.
	"internal/trace",
}

// InScope reports whether the package at path is governed by the
// determinism contract.
func InScope(path string) bool {
	// Strip the " [pkg.test]" suffix go vet appends to test variants of a
	// package: the non-test files of a test unit are still in scope.
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	for _, s := range deterministicScope {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// rngScope reports whether path is the sanctioned randomness package.
func rngScope(path string) bool {
	return path == "internal/rng" || strings.HasSuffix(path, "/internal/rng")
}

// The //wormlint:* marker machinery lives in markers.go; escape hatches
// are tracked for use there so `wormlint -audit` can flag stale ones.

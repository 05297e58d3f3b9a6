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
// wall-clock elapsed time.  internal/rng is absent because it is the
// sanctioned randomness implementation, where seeds terminate.
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
	// statistics) or assert over its state (faulttest), so their output is
	// equally golden.
	"internal/flit",
	"internal/topology",
	"internal/traffic",
	"internal/stats",
	"internal/ipmap",
	"internal/faulttest",
	// The observability layer records from inside the simulation tick and
	// its exported traces are compared byte-for-byte across runs.
	"internal/trace",
}

// allocScope lists the package path suffixes covered by the zero-alloc
// pin (network.TestDeliveredWormZeroAlloc pins zero heap allocations per
// delivered worm): the DES kernel, the event queue, the flit layer, and
// the fabric itself.  Everything a worm touches between injection and
// delivery lives here.
var allocScope = []string{
	"internal/des",
	"internal/eventq",
	"internal/flit",
	"internal/network",
}

// under reports whether the package at path ends in one of the given
// path suffixes, whole elements only.  The " [pkg.test]" suffix go vet
// appends to test variants of a package is ignored: the non-test files
// of a test unit are still in scope.
func under(path string, suffixes ...string) bool {
	path, _, _ = strings.Cut(path, " ")
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

package faulttest

import (
	"testing"

	"wormlan/internal/adapter"
	"wormlan/internal/fault"
	"wormlan/internal/topology"
)

// newBench is NewBench for tests: construction errors Fatal tb.
func newBench(tb testing.TB, g *topology.Graph, acfg adapter.Config, plan *fault.Plan, icfg fault.InjectorConfig) *Bench {
	tb.Helper()
	b, err := NewBench(g, acfg, plan, icfg)
	must(tb, err)
	return b
}

// must Fatals tb when a bench step or invariant check (RunErr,
// ConservationErr, HeldChannelsErr, RoutesErr) returns an error.
func must(tb testing.TB, err error) {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
}

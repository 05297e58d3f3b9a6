package faulttest

import (
	"testing"

	"wormlan/internal/adapter"
	"wormlan/internal/fault"
	"wormlan/internal/network"
	"wormlan/internal/topology"
	"wormlan/internal/vcroute"
)

// newBench is NewBenchRouted under up*/down* with the default fabric config,
// for tests: construction errors Fatal tb.
func newBench(tb testing.TB, g *topology.Graph, acfg adapter.Config, plan *fault.Plan, icfg fault.InjectorConfig) *Bench {
	tb.Helper()
	sch, err := vcroute.Lookup("")
	must(tb, err)
	b, err := NewBenchRouted(topology.Net{Graph: g}, sch, acfg, plan, icfg, network.Config{})
	must(tb, err)
	return b
}

// must Fatals tb when a bench step or check (RunErr, RoutesErr) returns an
// error.
func must(tb testing.TB, err error) {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
}

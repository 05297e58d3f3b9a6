package faulttest

// Storm-matrix tests: the chaos scenarios expressed as a sweep grid and
// fanned out across workers.  This is the concurrency proving ground for
// the whole repo — each worker runs a full DES kernel, mapper, fabric and
// adapter stack, so `go test -race ./internal/faulttest/` sweeps the
// entire simulator for shared mutable state.

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"wormlan/internal/fault"
	"wormlan/internal/network"
	"wormlan/internal/sweep"
	"wormlan/internal/topology"
	"wormlan/internal/vcroute"
)

// TestStormDerivedSeeds: specs with a zero fault seed draw their schedule
// from the sweep-derived per-point seed — distinct specs must get distinct
// storms, and the same matrix must reproduce exactly.
func TestStormDerivedSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: four full torus storms; internal/sweep's tests pin seed derivation")
	}
	specs := []StormSpec{
		{Name: "a", Topo: "torus8x8",
			Faults: fault.Options{LinkDowns: 2, SwitchDowns: 1, Corruptions: 2, Stalls: 1, Window: 30_000}},
		{Name: "b", Topo: "torus8x8",
			Faults: fault.Options{LinkDowns: 2, SwitchDowns: 1, Corruptions: 2, Stalls: 1, Window: 30_000}},
	}
	run := func() []Outcome {
		t.Helper()
		out, err := sweep.Run(context.Background(), &sweep.Engine{Workers: 2}, StormGrid(specs, 7))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run()
	if first[0] == first[1] {
		t.Fatal("distinct specs derived identical storms")
	}
	if second := run(); !reflect.DeepEqual(first, second) {
		t.Fatal("derived-seed storms not reproducible")
	}
}

// TestVCStormMatrix: the alternative-routing storms (dateline torus under
// both arbiters, direct-routed full mesh) drain with every invariant
// RunStorm checks — conservation, no held channels, schedule actually
// hit — and rerun bit-identically, including across worker counts.
func TestVCStormMatrix(t *testing.T) {
	specs := VCStormMatrix()
	if testing.Short() {
		specs = specs[:2]
	}
	seq, err := sweep.Run(context.Background(), &sweep.Engine{Workers: 1}, StormGrid(specs, 1996))
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep.Run(context.Background(), &sweep.Engine{Workers: 3}, StormGrid(specs, 1996))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("vc storm matrix not worker-count invariant:\n seq=%+v\n par=%+v", seq, par)
	}
	for i, o := range seq {
		if o.Fabric.Injected == 0 || o.Uni == 0 {
			t.Errorf("vc storm %s saw no traffic: %+v", specs[i].Name, o)
		}
		if o.Inject.Corruptions == 0 {
			t.Errorf("vc storm %s corrupted nothing: %+v", specs[i].Name, o.Inject)
		}
	}
}

// TestVCStormLinkKillRecovers: a vcmin spec that schedules link kills now
// runs the full recovery path — the remap prunes the minimal-torus table
// over the survivors and every invariant still holds.
func TestVCStormLinkKillRecovers(t *testing.T) {
	o, err := RunStorm(StormSpec{
		Name: "vcmin-kill", Topo: "torus8x8", Route: "vcmin", NumVCs: 2,
		Faults: fault.Options{Seed: 3, LinkDowns: 1, Window: 30_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Inject.LinkDowns < 1 || o.Inject.Remaps < 1 {
		t.Fatalf("link kill did not drive a remap: %+v", o.Inject)
	}
}

// TestRemapRebuildFailureIsAnError: when the scheme table cannot be rebuilt
// after a remap, the bench halts the kernel and RunErr returns the error —
// it used to panic.  A valid bench cannot get there (the initial build
// excludes every construction error), so the test breaks the shared torus
// geometry after construction, before the link kill triggers the remap.
func TestRemapRebuildFailureIsAnError(t *testing.T) {
	net, err := topology.Named("torus8x8", 0)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := vcroute.Lookup("vcmin")
	if err != nil {
		t.Fatal(err)
	}
	geo := net.Torus
	plan := (&fault.Plan{}).LinkDown(20_000, geo.Sw[1][1], geo.XPlus[1][1])
	b, err := NewBenchRouted(net, sch, StormAdapterConfig(), plan, fault.InjectorConfig{}, network.Config{})
	if err != nil {
		t.Fatal(err)
	}
	geo.Hosts[0][0] = nil // host 0.0.0 vanishes from the geometry
	err = b.RunErr(1_000_000)
	if err == nil || !strings.Contains(err.Error(), "rebuild after remap") {
		t.Fatalf("RunErr = %v, want the rebuild error", err)
	}
}

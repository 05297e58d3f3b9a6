package faulttest

// Chaos tests: seeded random failure schedules (link kills, switch
// crashes, flit corruption, host stalls) against live reliable traffic on
// the paper's two reference fabrics.  After the storm the system must
// have recomputed valid up*/down* routes over the survivors, conserved
// every worm (delivered or counted dropped), drained to quiescence with
// no held channels, and behaved identically across reruns of the same
// seed.

import (
	"testing"

	"wormlan/internal/fault"
	"wormlan/internal/topology"
	"wormlan/internal/traffic"
)

// assertDeterministic runs the spec twice and compares outcomes, then
// checks that the storm actually cost worms without unbounded loss.
func assertDeterministic(t *testing.T, spec StormSpec) Outcome {
	t.Helper()
	first, err := RunStorm(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunStorm(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("chaos run not deterministic:\n first=%+v\nsecond=%+v", first, second)
	}
	fc := first.Fabric
	if fc.WormsDropped == 0 {
		t.Fatalf("storm dropped no worms — faults never touched traffic: %+v", fc)
	}
	// Bounded loss: the storm may cost worms, but most traffic survives.
	if fc.Delivered <= fc.WormsDropped {
		t.Fatalf("unbounded loss: delivered %d <= dropped %d", fc.Delivered, fc.WormsDropped)
	}
	return first
}

func TestChaosTorus(t *testing.T) {
	assertDeterministic(t, StormSpec{
		Topo: "torus8x8",
		Faults: fault.Options{
			Seed:        42,
			LinkDowns:   3,
			SwitchDowns: 1,
			Corruptions: 4,
			Stalls:      2,
			Window:      30_000,
		}})
}

func TestChaosShufflenet(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: torus chaos and the storm matrix cover the invariants")
	}
	assertDeterministic(t, StormSpec{
		Topo: "shufflenet24",
		Faults: fault.Options{
			Seed:        7,
			LinkDowns:   2,
			SwitchDowns: 1,
			Corruptions: 4,
			Stalls:      2,
			Window:      30_000,
		}})
}

func TestChaosTorusWithHealing(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the storm matrix includes a healing spec")
	}
	// Downs heal after a delay: the injector must restore links and
	// switches, trigger re-maps back toward the full topology, and the
	// adapter layer must re-admit healed group members.
	assertDeterministic(t, StormSpec{
		Topo: "torus8x8",
		Faults: fault.Options{
			Seed:        1234,
			LinkDowns:   3,
			SwitchDowns: 1,
			Corruptions: 2,
			Stalls:      1,
			Window:      30_000,
			Heal:        20_000,
		}})
}

// TestChaosAdaptive: the Duato-style adaptive scheme on the 8x8 torus
// survives a seeded corruption + link-kill storm — zero deadlocks (the
// drain check), conservation, a completed remap that reinstalled a
// surviving adaptive table, and bit-identical reruns.
func TestChaosAdaptive(t *testing.T) {
	o := assertDeterministic(t, StormSpec{
		Topo:  "torus8x8",
		Route: "adaptive",
		Faults: fault.Options{
			Seed:        99,
			LinkDowns:   2,
			Corruptions: 3,
			Stalls:      1,
			Window:      30_000,
		}})
	if o.Inject.LinkDowns < 1 || o.Inject.Remaps < 1 {
		t.Fatalf("storm killed no links or completed no remap: %+v", o.Inject)
	}
}

// TestChaosTargeted pins an explicit schedule: kill a known cable and a
// known switch, then verify the counters attribute the damage.
func TestChaosTargeted(t *testing.T) {
	g := topology.Torus(8, 8, 1, 1)
	sw := g.Switches()
	victim := sw[len(sw)/2]
	plan := (&fault.Plan{}).
		LinkDown(5_000, sw[3], 0).
		SwitchDown(9_000, victim)
	b := newBench(t, g, StormAdapterConfig(), plan, fault.InjectorConfig{})

	hosts := g.Hosts()
	gen, err := traffic.New(b.K, traffic.Config{
		OfferedLoad: 0.02,
		MeanWorm:    300,
		Until:       40_000,
	}, hosts, nil, b.Sys, 9)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	must(t, b.RunErr(1_500_000))

	if e := b.Fabric.TopologyEpoch(); e != 2 {
		t.Fatalf("epoch %d after two topology changes", e)
	}
	fail := b.Fabric.Failures()
	if !fail.Switches[victim] {
		t.Fatalf("switch %d not recorded as failed", victim)
	}
	ic := b.Inj.Counters()
	if ic.LinkDowns != 1 || ic.SwitchDowns != 1 || ic.Remaps < 1 {
		t.Fatalf("injector counters: %+v", ic)
	}
	must(t, b.RoutesErr())

	// The dead switch's hosts are unreachable, everyone else routable.
	for _, h := range hosts {
		att := g.Node(h).Ports[0].Peer
		if att == victim && b.UD.Reachable(h) {
			t.Fatalf("host %d on dead switch %d still reachable", h, victim)
		}
	}
}

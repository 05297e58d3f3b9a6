package network

import (
	"testing"

	"wormlan/internal/des"
	"wormlan/internal/flit"
	"wormlan/internal/route"
	"wormlan/internal/topology"
)

// vcGraph builds the two-switch dumbbell used by the VC conformance
// tests: hosts a, b, e attach to s0 (ports 1..3), hosts c, d to s1
// (ports 1..2), and port 0 of each switch is the shared trunk.
func vcGraph() (g *topology.Graph, s0, s1 topology.NodeID, hosts map[string]topology.NodeID) {
	g = topology.New()
	s0 = g.AddSwitch("s0")
	s1 = g.AddSwitch("s1")
	g.Connect(s0, s1, 1)
	hosts = map[string]topology.NodeID{}
	for _, n := range []string{"a", "b", "e"} {
		hosts[n] = g.AddHost(n)
		g.Connect(s0, hosts[n], 1)
	}
	for _, n := range []string{"c", "d"} {
		hosts[n] = g.AddHost(n)
		g.Connect(s1, hosts[n], 1)
	}
	return g, s0, s1, hosts
}

// vcWorm builds a unicast worm whose hop bytes carry explicit (port, vc)
// pairs, bypassing the routing table.
func vcWorm(t *testing.T, src, dst topology.NodeID, payload int, hops ...[2]int) *flit.Worm {
	t.Helper()
	ports := make([]topology.PortID, len(hops))
	for i, h := range hops {
		b, err := route.EncodeVCPort(topology.PortID(h[0]), h[1])
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = topology.PortID(b)
	}
	h, err := route.EncodeUnicast(ports)
	if err != nil {
		t.Fatal(err)
	}
	wormIDs++
	return &flit.Worm{ID: wormIDs, Src: src, Dst: dst, Mode: flit.Unicast,
		Group: -1, Header: h, PayloadLen: payload}
}

// deliveryTime returns when the worm addressed to dst landed, or -1.
func (r *rig) deliveryTime(dst topology.NodeID) des.Time {
	for _, d := range r.deliveries {
		if d.Host == dst {
			return d.At
		}
	}
	return -1
}

// runVCContention drives the shared-trunk contention scenario at a given
// lane count and returns the delivery time of the short e->c worm.  Worm 1
// (a->d) streams first; worm 2 (b->d) queues behind it for the d port and
// backpressures the trunk's lane 0; worm 3 (e->c) rides the lane given by
// lane3 and is the probe.
func runVCContention(t *testing.T, nvc, lane3 int) (cAt des.Time, r *rig) {
	t.Helper()
	g, _, _, hosts := vcGraph()
	r = newRig(t, g, Config{NumVCs: nvc, VCHeaders: true})
	w1 := vcWorm(t, hosts["a"], hosts["d"], 300, [2]int{0, 0}, [2]int{2, 0})
	w2 := vcWorm(t, hosts["b"], hosts["d"], 300, [2]int{0, 0}, [2]int{2, 0})
	w3 := vcWorm(t, hosts["e"], hosts["c"], 50, [2]int{0, lane3}, [2]int{1, 0})
	if err := r.f.Inject(hosts["a"], w1); err != nil {
		t.Fatal(err)
	}
	r.k.At(5, func() {
		if err := r.f.Inject(hosts["b"], w2); err != nil {
			t.Fatal(err)
		}
	})
	r.k.At(10, func() {
		if err := r.f.Inject(hosts["e"], w3); err != nil {
			t.Fatal(err)
		}
	})
	r.run(t, 0)
	if len(r.deliveries) != 3 {
		t.Fatalf("nvc=%d: %d deliveries, want 3", nvc, len(r.deliveries))
	}
	if got := r.f.Counters(); got.Injected != 3 || got.Delivered != 3 {
		t.Fatalf("nvc=%d: counters %+v", nvc, got)
	}
	return r.deliveryTime(hosts["c"]), r
}

// TestVCLaneBypassesBlockedSibling is the core per-VC STOP/GO conformance
// check: when lane 0 of the trunk is backpressured by a worm blocked on
// the far switch, a short worm on lane 1 still cuts through promptly,
// whereas with a single lane it serializes behind the whole pile-up.
func TestVCLaneBypassesBlockedSibling(t *testing.T) {
	fast, _ := runVCContention(t, 2, 1)
	slow, _ := runVCContention(t, 1, 0)
	// The lane-1 probe shares the trunk wire flit-by-flit with worm 1, so
	// it lands within a few hundred byte-times; the single-lane probe
	// waits for both 300-byte worms to clear the d port first.
	if fast >= slow {
		t.Fatalf("lane-1 probe at t=%d, single-lane probe at t=%d: VCs bought nothing", fast, slow)
	}
	if slow-fast < 250 {
		t.Fatalf("probe separation only %d byte-times (fast=%d slow=%d): lane 0 backpressure did not stall the single-lane probe", slow-fast, fast, slow)
	}
}

// TestVCLaneZeroStillBlocks: the same probe on lane 0 of a 2-lane fabric
// behaves like the single-lane run — per-lane STOP applies to the lane the
// worm actually rides, not to the physical wire.
func TestVCLaneZeroStillBlocks(t *testing.T) {
	onZero, _ := runVCContention(t, 2, 0)
	single, _ := runVCContention(t, 1, 0)
	if onZero != single {
		t.Fatalf("lane-0 probe on 2-lane fabric at t=%d, single-lane at t=%d: want identical", onZero, single)
	}
}

// TestVCInterleavedWormsBothDeliver: two worms streaming concurrently on
// different lanes of one wire both arrive intact, and the wire carries at
// most one flit per tick (FlitsCarried accounts each hop once).
func TestVCInterleavedWormsBothDeliver(t *testing.T) {
	g, _, _, hosts := vcGraph()
	r := newRig(t, g, Config{NumVCs: 2, VCHeaders: true})
	w1 := vcWorm(t, hosts["a"], hosts["c"], 120, [2]int{0, 0}, [2]int{1, 0})
	w2 := vcWorm(t, hosts["b"], hosts["d"], 120, [2]int{0, 1}, [2]int{2, 0})
	if err := r.f.Inject(hosts["a"], w1); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Inject(hosts["b"], w2); err != nil {
		t.Fatal(err)
	}
	r.run(t, 0)
	if len(r.deliveries) != 2 {
		t.Fatalf("%d deliveries, want 2", len(r.deliveries))
	}
	for _, d := range r.deliveries {
		if d.Worm.PayloadLen != 120 {
			t.Fatalf("payload %d delivered, want 120", d.Worm.PayloadLen)
		}
	}
	// Both worms alone would take ~(2 header + 120 + tail) + crossings;
	// sharing one wire flit-by-flit roughly doubles the stream time, so
	// the later delivery must land well past the solo latency.
	solo := des.Time(123 + 3)
	last := r.deliveries[1].At
	if r.deliveries[0].At > last {
		last = r.deliveries[0].At
	}
	if last <= solo+60 {
		t.Fatalf("last delivery at t=%d: lanes did not share the wire (solo latency %d)", last, solo)
	}
}

// TestKillLinkDropsWormOnUpperLane is the regression test for in-flight
// attribution under VCs: a worm streaming on lane 1 when its link dies
// must be dropped and counted, exactly once, even though lane 0 is idle.
// The kill finds the worm both in the trunk's pipeline and bound at s0's
// sending lane; its RxAborted mark is what counts the two paths once.
func TestKillLinkDropsWormOnUpperLane(t *testing.T) {
	g, s0, _, hosts := vcGraph()
	r := newRig(t, g, Config{NumVCs: 2, VCHeaders: true})
	w := vcWorm(t, hosts["b"], hosts["d"], 100, [2]int{0, 1}, [2]int{2, 0})
	if err := r.f.Inject(hosts["b"], w); err != nil {
		t.Fatal(err)
	}
	r.k.At(20, func() {
		s := r.f.sw[s0]
		o := &s.out[1] // trunk (port 0), lane 1
		if !o.link.occupied(0) || o.link.at(0).fl.W != w || o.boundIn < 0 || s.in[o.boundIn].worm != w {
			t.Fatal("worm is not both in the trunk's pipeline and bound at s0's lane 1")
		}
		if err := r.f.FailLink(s0, 0); err != nil {
			t.Fatal(err)
		}
		if c := r.f.Counters(); c.WormsDropped != 1 || !w.RxAborted {
			t.Fatalf("right after the kill: WormsDropped = %d, RxAborted = %v; want 1, true", c.WormsDropped, w.RxAborted)
		}
	})
	r.run(t, 0)
	c := r.f.Counters()
	if c.WormsDropped != 1 {
		t.Fatalf("WormsDropped = %d, want 1 (counters %+v)", c.WormsDropped, c)
	}
	if c.Delivered != 0 || len(r.deliveries) != 0 {
		t.Fatalf("worm delivered through a dead link: %+v", c)
	}
	if c.Injected != c.Delivered+c.WormsDropped {
		t.Fatalf("conservation violated: %+v", c)
	}
	if held := r.f.HeldChannels(); len(held) != 0 {
		t.Fatalf("%d held channels after kill", len(held))
	}
}

// TestKillLinkDropsBothLanes: worms mid-flight on BOTH lanes of the dying
// link are each attributed — the per-physical-pipe accounting bug dropped
// only lane 0's copy.
func TestKillLinkDropsBothLanes(t *testing.T) {
	g, s0, _, hosts := vcGraph()
	r := newRig(t, g, Config{NumVCs: 2, VCHeaders: true})
	w1 := vcWorm(t, hosts["a"], hosts["c"], 100, [2]int{0, 0}, [2]int{1, 0})
	w2 := vcWorm(t, hosts["b"], hosts["d"], 100, [2]int{0, 1}, [2]int{2, 0})
	if err := r.f.Inject(hosts["a"], w1); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Inject(hosts["b"], w2); err != nil {
		t.Fatal(err)
	}
	r.k.At(20, func() {
		if err := r.f.FailLink(s0, 0); err != nil {
			t.Fatal(err)
		}
	})
	r.run(t, 0)
	c := r.f.Counters()
	if c.WormsDropped != 2 {
		t.Fatalf("WormsDropped = %d, want 2 (counters %+v)", c.WormsDropped, c)
	}
	if c.Injected != c.Delivered+c.WormsDropped {
		t.Fatalf("conservation violated: %+v", c)
	}
	if held := r.f.HeldChannels(); len(held) != 0 {
		t.Fatalf("%d held channels after kill", len(held))
	}
}

// TestVCForkBindWakesSiblingLane: a multicast fork binding one lane of a
// wire wakes the unicast lane resting on a sibling lane of that wire (see
// swState.nap).  Worm c->d holds s1's port to d, so worm b->d, streaming
// on trunk lane 0, blocks at s1 until STOP holds its s0 lane, which naps.
// A multicast from e then forks onto trunk lane 1.
func TestVCForkBindWakesSiblingLane(t *testing.T) {
	g, s0, _, hosts := vcGraph()
	r := newRig(t, g, Config{NumVCs: 2, VCHeaders: true, StopMark: 8, GoMark: 4})
	blocker := vcWorm(t, hosts["c"], hosts["d"], 3000, [2]int{2, 0})
	held := vcWorm(t, hosts["b"], hosts["d"], 300, [2]int{0, 0}, [2]int{2, 0})
	for _, w := range []*flit.Worm{blocker, held} {
		if err := r.f.Inject(w.Src, w); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t, 200)
	s := r.f.sw[s0]
	var lane *inPort
	for pi := range s.in {
		if s.in[pi].worm == held {
			lane = &s.in[pi]
		}
	}
	if lane == nil || lane.mode != pmBoundUni || lane.ou != &s.out[0] || lane.rest != napStopped {
		t.Fatal("worm b->d is not resting STOP-held on trunk lane 0 at s0")
	}

	trunkL1, err := route.EncodeVCPort(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := route.Encode(&route.Tree{Branches: []route.Branch{
		{Port: topology.PortID(trunkL1), Sub: &route.Tree{Branches: []route.Branch{{Port: 1}}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	wormIDs++
	mc := &flit.Worm{ID: wormIDs, Src: hosts["e"], Dst: topology.None, Group: 0,
		Mode: flit.MulticastTree, Header: h, PayloadLen: 50}
	if err := r.f.Inject(hosts["e"], mc); err != nil {
		t.Fatal(err)
	}
	fork := &s.out[1] // trunk lane 1
	for i := 0; fork.boundIn < 0; i++ {
		if i == 100 {
			t.Fatal("the fork never bound trunk lane 1")
		}
		r.run(t, r.k.Now()+1)
	}
	if s.in[fork.boundIn].mode != pmBoundMC {
		t.Fatalf("trunk lane 1 bound in mode %v, want a fork", s.in[fork.boundIn].mode)
	}
	if lane.rest != awake {
		t.Fatalf("sibling lane still resting (rest=%d) after the fork bound its wire", lane.rest)
	}
	r.run(t, 0)
	if c := r.f.Counters(); c.Delivered != 3 || c.WormsDropped != 0 {
		t.Fatalf("counters %+v, want 3 deliveries", c)
	}
}

// TestVCMulticastForkPerBranchLanes: a VC-headered fabric carries tree
// worms, with every fork branch riding its own (port, lane) pair.  The
// multicast forks at s0 toward local host b (lane 0) and across the trunk
// on lane 1 toward d, while a concurrent unicast holds the trunk's lane 0 —
// per-branch lane state keeps the copies independent and all three
// deliveries land intact.
func TestVCMulticastForkPerBranchLanes(t *testing.T) {
	g, _, _, hosts := vcGraph()
	r := newRig(t, g, Config{NumVCs: 2, VCHeaders: true})
	trunkL1, err := route.EncodeVCPort(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := &route.Tree{Branches: []route.Branch{
		{Port: 2}, // host b: same-switch leaf, lane 0
		{Port: topology.PortID(trunkL1), Sub: &route.Tree{Branches: []route.Branch{
			{Port: 2}, // host d: leaf at s1, lane 0
		}}},
	}}
	h, err := route.Encode(tree)
	if err != nil {
		t.Fatal(err)
	}
	wormIDs++
	mc := &flit.Worm{ID: wormIDs, Src: hosts["a"], Dst: topology.None, Group: 0,
		Mode: flit.MulticastTree, Header: h, PayloadLen: 200}
	uni := vcWorm(t, hosts["e"], hosts["c"], 200, [2]int{0, 0}, [2]int{1, 0})
	if err := r.f.Inject(hosts["a"], mc); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Inject(hosts["e"], uni); err != nil {
		t.Fatal(err)
	}
	r.run(t, 0)
	got := r.deliveredHosts()
	for _, n := range []string{"b", "c", "d"} {
		if got[hosts[n]] != 1 {
			t.Fatalf("host %s received %d copies (all: %v)", n, got[hosts[n]], got)
		}
	}
	for _, d := range r.deliveries {
		if d.Worm.PayloadLen != 200 {
			t.Fatalf("payload %d delivered, want 200", d.Worm.PayloadLen)
		}
	}
	c := r.f.Counters()
	if c.Injected != 2 || c.Delivered != 3 || c.WormsDropped != 0 {
		t.Fatalf("counters %+v", c)
	}
	if held := r.f.HeldChannels(); len(held) != 0 {
		t.Fatalf("%d held channels after drain", len(held))
	}
}

// ffRun drives one long worm through the dumbbell with a mid-route lane
// switch (trunk on lane 1, host hop on lane 0 — the dateline shape) and
// returns the delivery time, counters, and skip diagnostics.
func ffRun(t *testing.T, disable bool) (at des.Time, c Counters, skips, skipped int64) {
	t.Helper()
	g, _, _, hosts := vcGraph()
	r := newRig(t, g, Config{NumVCs: 2, VCHeaders: true, DisableFastForward: disable})
	w := vcWorm(t, hosts["a"], hosts["c"], 4000, [2]int{0, 1}, [2]int{1, 0})
	if err := r.f.Inject(hosts["a"], w); err != nil {
		t.Fatal(err)
	}
	r.run(t, 0)
	if len(r.deliveries) != 1 {
		t.Fatalf("deliveries=%d", len(r.deliveries))
	}
	skips, skipped = r.f.SkipStats()
	return r.deliveries[0].At, r.f.Counters(), skips, skipped
}

// TestFastForwardExactOnLaneSwitchingWorm: a steady multi-VC stream whose
// route switches lanes mid-path fast-forwards, and the skipping run is
// indistinguishable from the tick-by-tick run.
func TestFastForwardExactOnLaneSwitchingWorm(t *testing.T) {
	atFF, cFF, skips, skipped := ffRun(t, false)
	atSlow, cSlow, s2, _ := ffRun(t, true)
	if skips == 0 || skipped == 0 {
		t.Fatal("fast-forward never engaged on a 4000-byte steady stream")
	}
	if s2 != 0 {
		t.Fatalf("DisableFastForward run skipped %d times", s2)
	}
	if atFF != atSlow {
		t.Fatalf("delivery at t=%d skipping, t=%d tick-by-tick", atFF, atSlow)
	}
	if cFF != cSlow {
		t.Fatalf("counters diverged:\nff:   %+v\nslow: %+v", cFF, cSlow)
	}
}

// TestFastForwardDeclinesOnInterleavedLanes: while two lanes share one
// wire flit-by-flit, the pipe is never lane-uniform and Skip must decline
// every time — fast-forwarding an interleaved wire would corrupt the
// round-robin multiplexing.
func TestFastForwardDeclinesOnInterleavedLanes(t *testing.T) {
	g, _, _, hosts := vcGraph()
	r := newRig(t, g, Config{NumVCs: 2, VCHeaders: true})
	w1 := vcWorm(t, hosts["a"], hosts["c"], 2000, [2]int{0, 0}, [2]int{1, 0})
	w2 := vcWorm(t, hosts["b"], hosts["d"], 2000, [2]int{0, 1}, [2]int{2, 0})
	if err := r.f.Inject(hosts["a"], w1); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Inject(hosts["b"], w2); err != nil {
		t.Fatal(err)
	}
	r.run(t, 0)
	if len(r.deliveries) != 2 {
		t.Fatalf("deliveries=%d", len(r.deliveries))
	}
	if skips, _ := r.f.SkipStats(); skips != 0 {
		t.Fatalf("fast-forward engaged %d times on an interleaved wire", skips)
	}
}

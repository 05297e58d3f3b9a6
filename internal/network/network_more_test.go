package network

import (
	"strings"
	"testing"

	"wormlan/internal/des"
	"wormlan/internal/flit"
	"wormlan/internal/topology"
)

// TestTwoMulticastsSequentialOverSharedPorts checks atomic output granting:
// two multicasts wanting overlapping output sets at one switch serialize
// cleanly instead of partially holding each other's ports.
func TestTwoMulticastsSequentialOverSharedPorts(t *testing.T) {
	g := topology.Star(5)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	m1 := r.multicast(t, hosts[0], []topology.NodeID{hosts[2], hosts[3], hosts[4]}, 200)
	m2 := r.multicast(t, hosts[1], []topology.NodeID{hosts[2], hosts[3], hosts[4]}, 200)
	r.f.Inject(hosts[0], m1)
	r.f.Inject(hosts[1], m2)
	r.run(t, 0)
	got := r.deliveredHosts()
	for _, h := range hosts[2:] {
		if got[h] != 2 {
			t.Fatalf("host %d received %d copies", h, got[h])
		}
	}
	if r.f.Stalled(100) {
		t.Fatal("overlapping multicasts stalled")
	}
}

func TestHeldChannelsDiagnostic(t *testing.T) {
	g := topology.Star(3)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	w1 := r.unicast(t, hosts[0], hosts[2], 400)
	w2 := r.unicast(t, hosts[1], hosts[2], 400)
	r.f.Inject(hosts[0], w1)
	r.f.Inject(hosts[1], w2)
	// Stop mid-flight and inspect who holds what.
	r.run(t, 50)
	held := r.f.HeldChannels()
	if len(held) != 1 {
		t.Fatalf("held worms = %d, want 1 (the granted one)", len(held))
	}
	for w, chans := range held {
		if w != w1 && w != w2 {
			t.Fatal("unknown worm holds a channel")
		}
		if len(chans) != 1 {
			t.Fatalf("worm holds %d channels, want 1", len(chans))
		}
	}
	// Drain fully; nothing should remain held.
	r.run(t, 0)
	if len(r.f.HeldChannels()) != 0 {
		t.Fatal("channels still held after drain")
	}
}

func TestStallReportContents(t *testing.T) {
	g := topology.Star(3)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	r.f.Inject(hosts[0], r.unicast(t, hosts[0], hosts[2], 400))
	r.f.Inject(hosts[1], r.unicast(t, hosts[1], hosts[2], 400))
	r.run(t, 40)
	rep := r.f.StallReport()
	for _, want := range []string{"fabric stall report", "holds", "wants"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("stall report missing %q:\n%s", want, rep)
		}
	}
}

func TestFlitConservation(t *testing.T) {
	// Every payload flit injected must be delivered to exactly one host
	// (unicast) with none lost in the fabric.
	g := topology.Torus(3, 3, 1, 1)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	wantPayload := 0
	for i := range hosts {
		w := r.unicast(t, hosts[i], hosts[(i+4)%len(hosts)], 100+i*13)
		wantPayload += w.PayloadLen
		r.f.Inject(hosts[i], w)
	}
	r.run(t, 0)
	gotPayload := 0
	for _, d := range r.deliveries {
		gotPayload += d.Worm.PayloadLen
	}
	if gotPayload != wantPayload {
		t.Fatalf("payload delivered %d, injected %d", gotPayload, wantPayload)
	}
	c := r.f.Counters()
	if c.Delivered != int64(len(hosts)) || c.Injected != int64(len(hosts)) {
		t.Fatalf("counters %+v", c)
	}
}

func TestBackToBackMulticastAndUnicastInterleave(t *testing.T) {
	// A host's interface alternating multicast and unicast worms must keep
	// FIFO order per destination and complete everything.
	g := topology.FatTreeish(2, 2, false)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	r.f.Inject(hosts[0], r.multicast(t, hosts[0], []topology.NodeID{hosts[1], hosts[2]}, 150))
	r.f.Inject(hosts[0], r.unicast(t, hosts[0], hosts[3], 80))
	r.f.Inject(hosts[0], r.multicast(t, hosts[0], []topology.NodeID{hosts[2], hosts[3]}, 150))
	r.run(t, 0)
	got := r.deliveredHosts()
	if got[hosts[1]] != 1 || got[hosts[2]] != 2 || got[hosts[3]] != 2 {
		t.Fatalf("deliveries %v", got)
	}
}

func TestLongWormMaxSize(t *testing.T) {
	// A 9 KB worm (the LANai limit) crosses a multi-hop path intact.
	g := topology.Line(3, 1)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	w := r.unicast(t, hosts[0], hosts[2], flit.MaxWormSize-10)
	if err := r.f.Inject(hosts[0], w); err != nil {
		t.Fatal(err)
	}
	r.run(t, 0)
	if len(r.deliveries) != 1 {
		t.Fatal("max-size worm lost")
	}
	over := r.unicast(t, hosts[0], hosts[2], flit.MaxWormSize)
	if err := r.f.Inject(hosts[0], over); err == nil {
		t.Fatal("worm above the LANai limit accepted")
	}
}

func TestKernelTimeMonotoneThroughDeliveries(t *testing.T) {
	g := topology.Star(4)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	for i := 0; i < 3; i++ {
		r.f.Inject(hosts[0], r.unicast(t, hosts[0], hosts[1+i], 60))
	}
	r.run(t, 0)
	var last des.Time
	for _, d := range r.deliveries {
		if d.At < last {
			t.Fatal("deliveries out of time order")
		}
		last = d.At
	}
}

package emu

import "testing"

// fullSizes is the full-scale packet-size grid of Figures 12 and 13.
var fullSizes = []int{1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192}

func TestCircuitDeliversToAllOthers(t *testing.T) {
	l := New()
	l.SetupCircuit(1)
	if err := l.Cards[3].Originate(1, 1000); err != nil {
		t.Fatal(err)
	}
	if err := l.K.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, c := range l.Cards {
		want := int64(1)
		if c.ID == 3 {
			want = 0 // the circuit stops at the originator's predecessor
		}
		if c.RxPackets != want {
			t.Fatalf("card %d received %d packets, want %d", c.ID, c.RxPackets, want)
		}
		if c.Drops != 0 {
			t.Fatalf("card %d dropped %d", c.ID, c.Drops)
		}
	}
}

func TestUnknownGroupErrors(t *testing.T) {
	if err := New().Cards[0].Originate(9, 100); err == nil {
		t.Fatal("unknown group accepted")
	}
}

func TestSetGroupCustomChain(t *testing.T) {
	l := New()
	// Chain 0 -> 2 -> 4 only.
	l.Cards[0].SetGroup(7, l.Cards[2], 2)
	l.Cards[2].SetGroup(7, l.Cards[4], 2)
	l.Cards[4].SetGroup(7, nil, 0)
	if err := l.Cards[0].Originate(7, 500); err != nil {
		t.Fatal(err)
	}
	if err := l.K.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, c := range l.Cards {
		want := int64(0)
		if c.ID == 2 || c.ID == 4 {
			want = 1
		}
		if c.RxPackets != want {
			t.Fatalf("card %d received %d packets, want %d", c.ID, c.RxPackets, want)
		}
	}
}

func TestMeasureIsDeterministic(t *testing.T) {
	if a, b := Measure(4096, true), Measure(4096, true); a != b {
		t.Fatalf("two runs differ:\n%+v\n%+v", a, b)
	}
}

func TestSingleSenderNoLoss(t *testing.T) {
	// "In the single source case no loss of packets due to input buffer
	// overflow was observed" — forwarding outpaces origination.
	for _, p := range Sweep(fullSizes, false) {
		if p.LossRate != 0 || p.Dropped != 0 {
			t.Errorf("single-sender loss at %d B: %+v", p.PacketSize, p)
		}
	}
}

func TestThroughputGrowsWithPacketSize(t *testing.T) {
	// Per-packet overhead amortizes: the Figure 12 solid curve rises with
	// size, from ~18 Mb/s at 1 KB to ~118 Mb/s at 8 KB.
	pts := Sweep(fullSizes, false)
	for i := 1; i < len(pts); i++ {
		if pts[i].ThroughputMbps <= pts[i-1].ThroughputMbps {
			t.Errorf("throughput did not grow: %v -> %v", pts[i-1], pts[i])
		}
	}
	if lo := pts[0].ThroughputMbps; lo < 16 || lo > 20 {
		t.Errorf("1 KB single-sender %v Mb/s, want 16-20", lo)
	}
	if hi := pts[len(pts)-1].ThroughputMbps; hi < 110 || hi > 125 {
		t.Errorf("8 KB single-sender %v Mb/s, want 110-125", hi)
	}
}

func TestAllSendLosesAndDegradesPerHost(t *testing.T) {
	// "Packet loss was only significant if hosts were originating
	// multicast packets as well as forwarding", and per-host goodput in
	// the all-send case sits below the single-sender curve at every size
	// (Figure 12's dashed line under the solid one).
	single, all := Sweep(fullSizes, false), Sweep(fullSizes, true)
	for i, p := range all {
		if p.Dropped == 0 {
			t.Errorf("all-send produced no loss at %d B: %+v", p.PacketSize, p)
		}
		if p.ThroughputMbps >= single[i].ThroughputMbps {
			t.Errorf("all-send %v not below single-sender %v", p, single[i])
		}
	}
}

func TestLossGrowsWithPacketSize(t *testing.T) {
	// Figure 13: bigger packets fit fewer-deep in the ~25 KB input buffer,
	// so bursts overflow it more readily.  Non-decreasing at the figure's
	// resolution of 0.1 %: a window holds ~1600 arrivals, so one packet
	// either side of its edge is 0.06 % (7 -> 8 KB reads 49.04 -> 49.02).
	pts := Sweep(fullSizes, true)
	for i, p := range pts {
		if p.LossRate < 0.30 || p.LossRate > 0.55 {
			t.Errorf("all-send loss %.1f%% at %d B, want 30-55%%", p.LossRate*100, p.PacketSize)
		}
		if i > 0 && p.LossRate < pts[i-1].LossRate-0.001 {
			t.Errorf("loss fell with size: %v -> %v", pts[i-1], p)
		}
	}
}

func TestSweepShape(t *testing.T) {
	pts := Sweep([]int{1024, 8192}, false)
	if len(pts) != 2 {
		t.Fatalf("points %d", len(pts))
	}
	if pts[0].PacketSize != 1024 || pts[1].PacketSize != 8192 {
		t.Fatal("sizes out of order")
	}
	if pts[0].String() == "" {
		t.Fatal("empty row")
	}
}

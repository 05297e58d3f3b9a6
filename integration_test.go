package wormlan

// Whole-stack integration tests: up/down routing -> byte-level fabric ->
// host-adapter protocol -> traffic, with conservation invariants (every
// worm generated is delivered exactly the right number of times) and
// protocol-quiescence checks.

import (
	"testing"
	"testing/quick"

	"wormlan/internal/adapter"
	"wormlan/internal/des"
	"wormlan/internal/multicast"
	"wormlan/internal/network"
	"wormlan/internal/rng"
	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/traffic"
	"wormlan/internal/updown"
)

// stack is a fully wired LAN labelled from updown's default root, the
// lowest-numbered switch.  internal/mapper's TestRootMatchesUpdownDefault
// pins that root to be the one the distributed mapper elects.
type stack struct {
	t   *testing.T
	k   *des.Kernel
	g   *topology.Graph
	sys *adapter.System

	uniDelivered int64
	mcDelivered  map[int64]int // transfer ID -> copies delivered
}

func newStack(t *testing.T, g *topology.Graph, acfg adapter.Config) *stack {
	t.Helper()
	s := &stack{t: t, k: des.NewKernel(), g: g, mcDelivered: map[int64]int{}}

	ud, err := updown.New(g, topology.None)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := ud.NewTable(false)
	if err != nil {
		t.Fatal(err)
	}
	f, err := network.New(s.k, g, ud, network.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.sys, err = adapter.NewSystem(s.k, f, tbl, acfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	s.sys.OnAppDeliver = func(d adapter.AppDelivery) {
		if d.Transfer != nil {
			s.mcDelivered[d.Transfer.ID]++
		} else {
			s.uniDelivered++
		}
	}
	return s
}

func (s *stack) addGroup(id int, members []topology.NodeID) *multicast.Group {
	s.t.Helper()
	grp, err := multicast.NewGroup(id, members)
	if err != nil {
		s.t.Fatal(err)
	}
	if _, err := s.sys.AddGroup(grp); err != nil {
		s.t.Fatal(err)
	}
	return grp
}

func (s *stack) quiescent() {
	s.t.Helper()
	for _, h := range s.g.Hosts() {
		c1, c2, dma := s.sys.Adapter(h).Pools()
		if c1.Used != 0 || c2.Used != 0 || (dma != nil && dma.Used != 0) {
			s.t.Fatalf("host %d leaked buffers: %d/%d", h, c1.Used, c2.Used)
		}
	}
}

func TestEndToEndConservationUnderLoad(t *testing.T) {
	// Poisson traffic with the full reliable protocol on the torus: every
	// generated worm must be delivered exactly once (unicast) or once per
	// group member (multicast), and the system must drain to quiescence.
	g := topology.Torus(3, 3, 1, 1)
	s := newStack(t, g, adapter.Config{Mode: adapter.ModeCircuit, CutThrough: true})
	hosts := g.Hosts()
	grpA := s.addGroup(0, hosts[:5])
	grpB := s.addGroup(1, hosts[4:])
	groupsOf := map[topology.NodeID][]int{}
	for _, h := range grpA.Members {
		groupsOf[h] = append(groupsOf[h], 0)
	}
	for _, h := range grpB.Members {
		groupsOf[h] = append(groupsOf[h], 1)
	}
	gen, err := traffic.New(s.k, traffic.Config{
		OfferedLoad:   0.02,
		MeanWorm:      300,
		MulticastProb: 0.2,
		Until:         150_000,
	}, hosts, groupsOf, s.sys, 5)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	if err := s.k.Run(0); err != nil {
		t.Fatal(err)
	}
	worms, mcs, _ := gen.Generated()
	if worms == 0 || mcs == 0 {
		t.Fatalf("generated %d/%d", worms, mcs)
	}
	if s.uniDelivered != worms-mcs {
		t.Fatalf("unicast conservation: generated %d, delivered %d", worms-mcs, s.uniDelivered)
	}
	stats := s.sys.Stats()
	if stats.GiveUps != 0 {
		t.Fatalf("protocol gave up: %+v", stats)
	}
	// Every transfer delivered to every member of its group exactly once.
	if int64(len(s.mcDelivered)) != mcs {
		t.Fatalf("multicast transfers: generated %d, observed %d", mcs, len(s.mcDelivered))
	}
	for id, copies := range s.mcDelivered {
		if copies != len(grpA.Members) && copies != len(grpB.Members) {
			t.Fatalf("transfer %d delivered %d copies", id, copies)
		}
	}
	s.quiescent()
}

func TestEndToEndTightBuffersStillConserves(t *testing.T) {
	// One-worm buffers force NACKs and retransmissions; reliability must
	// hold regardless.
	g := topology.Myrinet4()
	s := newStack(t, g, adapter.Config{
		Mode:        adapter.ModeTreeRooted,
		ClassBytes:  600,
		NackBackoff: 2048,
	})
	hosts := g.Hosts()
	grp := s.addGroup(0, hosts)
	for i := 0; i < 3; i++ {
		for _, h := range hosts[:4] {
			if _, err := s.sys.Adapter(h).SendMulticast(0, 500); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.k.Run(0); err != nil {
		t.Fatal(err)
	}
	stats := s.sys.Stats()
	if stats.GiveUps != 0 {
		t.Fatalf("gave up: %+v", stats)
	}
	if stats.Nacks == 0 {
		t.Fatalf("tight buffers produced no NACKs: %+v", stats)
	}
	want := 12 * len(grp.Members)
	got := 0
	for _, c := range s.mcDelivered {
		got += c
	}
	if got != want {
		t.Fatalf("deliveries %d, want %d", got, want)
	}
	s.quiescent()
}

func TestEndToEndRandomTopologiesProperty(t *testing.T) {
	// Property: on random connected topologies with random groups, the
	// reliable circuit protocol delivers every transfer to every member
	// and leaves no buffer pinned.
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%8) + 4
		g := topology.Random(n, 3, seed)
		s := newStack(t, g, adapter.Config{Mode: adapter.ModeCircuit})
		hosts := g.Hosts()
		r := rng.New(seed, 0xF00)
		perm := r.Perm(len(hosts))
		size := 2 + r.Intn(len(hosts)-1)
		var members []topology.NodeID
		for _, p := range perm[:size] {
			members = append(members, hosts[p])
		}
		grp, err := multicast.NewGroup(0, members)
		if err != nil {
			return false
		}
		if _, err := s.sys.AddGroup(grp); err != nil {
			return false
		}
		origin := members[r.Intn(len(members))]
		if _, err := s.sys.Adapter(origin).SendMulticast(0, 100+r.Intn(900)); err != nil {
			return false
		}
		if err := s.k.Run(0); err != nil {
			return false
		}
		for _, c := range s.mcDelivered {
			if c != len(members) {
				return false
			}
		}
		if s.sys.Stats().GiveUps != 0 {
			return false
		}
		for _, h := range hosts {
			c1, c2, _ := s.sys.Adapter(h).Pools()
			if c1.Used != 0 || c2.Used != 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMulticastHeaderDecoderNeverPanics(t *testing.T) {
	// Robustness: SplitHeader must reject (not panic on) arbitrary bytes;
	// the switch trusts only headers it built itself, but the codec is a
	// public API.
	err := quick.Check(func(seed uint64, lenRaw uint8) bool {
		r := rng.New(seed, 0xBAD)
		buf := make([]byte, int(lenRaw%64))
		for i := range buf {
			buf[i] = byte(r.Intn(256))
		}
		defer func() {
			if recover() != nil {
				t.Errorf("SplitHeader panicked on %v", buf)
			}
		}()
		splits, err := route.SplitHeader(buf)
		if err == nil {
			// Accepted headers must re-encode consistently.
			tr, derr := route.Decode(buf)
			if derr != nil || (tr == nil && len(splits) > 0) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

package network

import (
	"testing"

	"wormlan/internal/des"
	"wormlan/internal/flit"
	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// rig bundles a kernel, routing, and fabric over a topology with a
// delivery log.
type rig struct {
	k  *des.Kernel
	g  *topology.Graph
	ud *updown.Routing
	f  *Fabric

	deliveries []Delivery
}

func newRig(t *testing.T, g *topology.Graph, cfg Config) *rig {
	t.Helper()
	r := &rig{k: des.NewKernel(), g: g}
	ud, err := updown.New(g, topology.None)
	if err != nil {
		t.Fatal(err)
	}
	r.ud = ud
	base := cfg
	base.OnDeliver = func(d Delivery) { r.deliveries = append(r.deliveries, d) }
	f, err := New(r.k, g, ud, base)
	if err != nil {
		t.Fatal(err)
	}
	r.f = f
	return r
}

var wormIDs int64

func (r *rig) unicast(t *testing.T, src, dst topology.NodeID, payload int) *flit.Worm {
	t.Helper()
	rt, err := r.ud.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	h, err := route.EncodeUnicast(rt.Ports)
	if err != nil {
		t.Fatal(err)
	}
	wormIDs++
	return &flit.Worm{ID: wormIDs, Src: src, Dst: dst, Mode: flit.Unicast,
		Group: -1, Header: h, PayloadLen: payload}
}

func (r *rig) multicast(t *testing.T, src topology.NodeID, dsts []topology.NodeID, payload int) *flit.Worm {
	t.Helper()
	var routes [][]topology.PortID
	for _, d := range dsts {
		rt, err := r.ud.Route(src, d)
		if err != nil {
			t.Fatal(err)
		}
		routes = append(routes, rt.Ports)
	}
	tree, err := route.BuildTree(routes)
	if err != nil {
		t.Fatal(err)
	}
	h, err := route.Encode(tree)
	if err != nil {
		t.Fatal(err)
	}
	wormIDs++
	return &flit.Worm{ID: wormIDs, Src: src, Mode: flit.MulticastTree,
		Dst: topology.None, Group: 0, Header: h, PayloadLen: payload}
}

func (r *rig) run(t *testing.T, deadline des.Time) {
	t.Helper()
	if err := r.k.Run(deadline); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) deliveredHosts() map[topology.NodeID]int {
	m := map[topology.NodeID]int{}
	for _, d := range r.deliveries {
		m[d.Host]++
	}
	return m
}

func TestUnicastLatencyPinned(t *testing.T) {
	// Two switches in a line, all link delays 1.  Worm: 2 header bytes,
	// 10 payload, 1 tail = 13 flits.  First flit leaves at t=1; the
	// pipeline adds 3 link crossings; the tail lands at t = 13 + 3 = 16.
	g := topology.Line(2, 1)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	w := r.unicast(t, hosts[0], hosts[1], 10)
	if err := r.f.Inject(hosts[0], w); err != nil {
		t.Fatal(err)
	}
	r.run(t, 0)
	if len(r.deliveries) != 1 {
		t.Fatalf("deliveries = %d", len(r.deliveries))
	}
	d := r.deliveries[0]
	if d.Host != hosts[1] || d.Worm != w {
		t.Fatalf("wrong delivery %+v", d)
	}
	if d.At != 16 {
		t.Fatalf("delivered at t=%d, want 16", d.At)
	}
	if w.Injected != 1 {
		t.Fatalf("injected at %d, want 1", w.Injected)
	}
}

func TestUnicastSingleSwitchLatency(t *testing.T) {
	// Star: 1 header byte + 5 payload + tail = 7 flits, 2 link crossings:
	// tail lands at t = 7 + 2 = 9.
	g := topology.Star(3)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	w := r.unicast(t, hosts[0], hosts[1], 5)
	if err := r.f.Inject(hosts[0], w); err != nil {
		t.Fatal(err)
	}
	r.run(t, 0)
	if len(r.deliveries) != 1 || r.deliveries[0].At != 9 {
		t.Fatalf("deliveries %+v", r.deliveries)
	}
}

func TestUnicastLongDelayLink(t *testing.T) {
	// 1000 byte-time backbone link (the shufflenet setting of Figure 11).
	g := topology.Line(2, 1000)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	w := r.unicast(t, hosts[0], hosts[1], 10)
	if err := r.f.Inject(hosts[0], w); err != nil {
		t.Fatal(err)
	}
	r.run(t, 0)
	// 13 flits + crossings (1 + 1000 + 1).
	if len(r.deliveries) != 1 || r.deliveries[0].At != 13+1002 {
		t.Fatalf("deliveries %+v", r.deliveries)
	}
}

// TestGoCrossesIdleGap: a GO sent just before the fabric goes idle reaches
// the sender during the gap, so a worm sent after the gap crosses the
// trunk without a stall, at the contention-free latency.  On Line(3, 100)
// worm a (h2 to h1) holds s1's output to h1 while worm b (h0 to h1) fills
// s1's trunk lane past the STOP mark; b then drains to GO and is delivered
// within a delay of the GO, before the sender sees it.
func TestGoCrossesIdleGap(t *testing.T) {
	const delay = 100
	g := topology.Line(3, delay)
	hosts := g.Hosts()
	fresh := func(r *rig) *flit.Worm { return r.unicast(t, hosts[0], hosts[1], 3*delay) }
	latency := func(r *rig, w *flit.Worm) des.Time {
		t.Helper()
		for _, d := range r.deliveries {
			if d.Worm == w {
				return d.At - w.Created
			}
		}
		t.Fatalf("worm %d not delivered", w.ID)
		return 0
	}

	clean := newRig(t, g, Config{})
	c := fresh(clean)
	if err := clean.f.Inject(hosts[0], c); err != nil {
		t.Fatal(err)
	}
	clean.run(t, 0)
	want := latency(clean, c)

	r := newRig(t, g, Config{})
	var trunk *dlink
	s0, s1 := g.Node(hosts[0]).Ports[0].Peer, g.Node(hosts[1]).Ports[0].Peer
	for _, l := range r.f.links {
		if l.srcNode == s0 && l.dstNode == s1 {
			trunk = l
		}
	}
	if err := r.f.Inject(hosts[2], r.unicast(t, hosts[2], hosts[1], 200)); err != nil {
		t.Fatal(err)
	}
	r.k.At(10, func() {
		if err := r.f.Inject(hosts[0], r.unicast(t, hosts[0], hosts[1], 80)); err != nil {
			t.Fatal(err)
		}
	})
	r.run(t, 300)
	if !trunk.stopped(0) {
		t.Fatal("the STOP episode never reached the trunk's sender")
	}
	r.run(t, 0)
	if len(r.deliveries) != 2 {
		t.Fatalf("%d deliveries before the gap, want 2", len(r.deliveries))
	}
	if !trunk.stopped(0) {
		t.Fatal("the GO reached the trunk's sender before the fabric went idle")
	}
	stalled := trunk.stalled
	w := fresh(r)
	r.k.At(r.k.Now()+3*delay, func() {
		if err := r.f.Inject(hosts[0], w); err != nil {
			t.Fatal(err)
		}
	})
	r.run(t, 0)
	if d := trunk.stalled - stalled; d != 0 {
		t.Errorf("trunk stalled %d ticks after the gap, want 0", d)
	}
	if got := latency(r, w); got != want {
		t.Errorf("worm after the gap took %d byte-times, want the contention-free %d", got, want)
	}
}

func TestContentionRoundTrip(t *testing.T) {
	// Two senders to one destination: both worms must arrive intact, the
	// second delayed behind the first (no drops in a backpressured LAN).
	g := topology.Star(3)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	w1 := r.unicast(t, hosts[0], hosts[2], 50)
	w2 := r.unicast(t, hosts[1], hosts[2], 50)
	r.f.Inject(hosts[0], w1)
	r.f.Inject(hosts[1], w2)
	r.run(t, 0)
	if len(r.deliveries) != 2 {
		t.Fatalf("deliveries = %d", len(r.deliveries))
	}
	if r.deliveries[0].Host != hosts[2] || r.deliveries[1].Host != hosts[2] {
		t.Fatal("wrong hosts")
	}
	// Second delivery at least a worm-length after the first.
	gap := r.deliveries[1].At - r.deliveries[0].At
	if gap < 50 {
		t.Fatalf("second delivery only %d byte-times after first", gap)
	}
	if got := r.f.Counters().Delivered; got != 2 {
		t.Fatalf("counter Delivered = %d", got)
	}
}

func TestBackpressureNoOverflowTightBuffers(t *testing.T) {
	// Small STOP/GO marks and many contending worms: the slack-overflow
	// panic in inPort.receive is the invariant under test.
	g := topology.Line(3, 1)
	r := newRig(t, g, Config{StopMark: 8, GoMark: 4})
	hosts := g.Hosts()
	for i := 0; i < 5; i++ {
		r.f.Inject(hosts[0], r.unicast(t, hosts[0], hosts[2], 300))
		r.f.Inject(hosts[1], r.unicast(t, hosts[1], hosts[2], 300))
	}
	r.run(t, 0)
	if len(r.deliveries) != 10 {
		t.Fatalf("deliveries = %d, want 10", len(r.deliveries))
	}
}

func TestBackpressureLongDelayNoOverflow(t *testing.T) {
	// STOP takes 200 byte-times to reach the sender; the slack must absorb
	// 2x that in-flight data.
	g := topology.Line(2, 200)
	r := newRig(t, g, Config{StopMark: 8, GoMark: 4})
	hosts := g.Hosts()
	for i := 0; i < 3; i++ {
		r.f.Inject(hosts[0], r.unicast(t, hosts[0], hosts[1], 1000))
	}
	// A cross worm competing for the same destination port.
	r.run(t, 0)
	if len(r.deliveries) != 3 {
		t.Fatalf("deliveries = %d", len(r.deliveries))
	}
}

func TestPipelinedWormsBackToBack(t *testing.T) {
	// Worms queued at one interface leave back to back; deliveries are in
	// FIFO order.
	g := topology.Star(2)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	var worms []*flit.Worm
	for i := 0; i < 4; i++ {
		w := r.unicast(t, hosts[0], hosts[1], 20)
		worms = append(worms, w)
		r.f.Inject(hosts[0], w)
	}
	if h := r.f.hosts[hosts[0]]; h.qlen() != 4 || h.cur != nil {
		t.Fatalf("host queue holds %d worms (sending: %v), want 4 queued", h.qlen(), h.cur != nil)
	}
	if !r.f.Busy(hosts[0]) {
		t.Fatal("interface not busy")
	}
	r.run(t, 0)
	for i, d := range r.deliveries {
		if d.Worm != worms[i] {
			t.Fatalf("delivery %d out of order", i)
		}
	}
	if r.f.Busy(hosts[0]) {
		t.Fatal("interface still busy after drain")
	}
}

func TestMulticastTreeDelivery(t *testing.T) {
	// Multicast across the fat tree: every member receives exactly one
	// complete copy; non-members receive nothing.
	g := topology.FatTreeish(3, 2, false)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	dsts := []topology.NodeID{hosts[1], hosts[2], hosts[4], hosts[5]}
	w := r.multicast(t, hosts[0], dsts, 100)
	if err := r.f.Inject(hosts[0], w); err != nil {
		t.Fatal(err)
	}
	r.run(t, 0)
	got := r.deliveredHosts()
	if len(got) != len(dsts) {
		t.Fatalf("delivered to %d hosts, want %d: %v", len(got), len(dsts), got)
	}
	for _, d := range dsts {
		if got[d] != 1 {
			t.Fatalf("host %d received %d copies", d, got[d])
		}
	}
	c := r.f.Counters()
	if c.Delivered != int64(len(dsts)) {
		t.Fatalf("counters %+v", c)
	}
}

func TestMulticastSameSwitchFanout(t *testing.T) {
	g := topology.Star(5)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	w := r.multicast(t, hosts[0], []topology.NodeID{hosts[1], hosts[2], hosts[3], hosts[4]}, 40)
	r.f.Inject(hosts[0], w)
	r.run(t, 0)
	if len(r.deliveries) != 4 {
		t.Fatalf("deliveries = %d", len(r.deliveries))
	}
	// Replication is simultaneous in the crossbar: all copies land at the
	// same byte-time.
	for _, d := range r.deliveries[1:] {
		if d.At != r.deliveries[0].At {
			t.Fatalf("copies landed at %d and %d", r.deliveries[0].At, d.At)
		}
	}
}

// blockedMulticastRig builds the two-switch scenario of
// TestSchemeIdleFillBlockedMulticast: hA, hB on s0; hC, hD on s1.  A long unicast hD->hC holds s1's
// output to hC; a multicast hA->{hB, hC} then blocks at s1, backpressures
// across the s0-s1 link, and stalls its hB branch at s0.
type blockedMulticastRig struct {
	*rig
	hA, hB, hC, hD topology.NodeID
	mc             *flit.Worm
}

func newBlockedMulticastRig(t *testing.T, cfg Config) *blockedMulticastRig {
	g := topology.New()
	s0 := g.AddSwitch("s0")
	s1 := g.AddSwitch("s1")
	g.Connect(s0, s1, 1)
	hA := g.AddHost("hA")
	hB := g.AddHost("hB")
	hC := g.AddHost("hC")
	hD := g.AddHost("hD")
	g.Connect(s0, hA, 1)
	g.Connect(s0, hB, 1)
	g.Connect(s1, hC, 1)
	g.Connect(s1, hD, 1)
	cfg.StopMark = 8
	cfg.GoMark = 4
	b := &blockedMulticastRig{rig: newRig(t, g, cfg), hA: hA, hB: hB, hC: hC, hD: hD}
	blocker := b.unicast(t, hD, hC, 600)
	b.f.Inject(hD, blocker)
	b.mc = b.multicast(t, hA, []topology.NodeID{hB, hC}, 300)
	// Give the blocker a head start so it owns s1's port to hC.
	b.k.At(20, func() { b.f.Inject(hA, b.mc) })
	return b
}

func TestSchemeIdleFillBlockedMulticast(t *testing.T) {
	b := newBlockedMulticastRig(t, Config{})
	b.run(t, 0)
	got := b.deliveredHosts()
	if got[b.hB] != 1 || got[b.hC] != 2 { // hC gets blocker + multicast
		t.Fatalf("deliveries %v", got)
	}
	// The hB copy is gated by the slowest branch: it cannot complete until
	// after the blocker (600+ bytes) has drained.
	var hBAt, blockerAt des.Time
	for _, d := range b.deliveries {
		if d.Host == b.hB {
			hBAt = d.At
		}
		if d.Host == b.hC && d.Worm.Mode == flit.Unicast {
			blockerAt = d.At
		}
	}
	if hBAt < blockerAt {
		t.Fatalf("hB copy (t=%d) completed before the blocking unicast drained (t=%d)", hBAt, blockerAt)
	}
}

func TestBroadcastReachesAllHosts(t *testing.T) {
	g := topology.FatTreeish(2, 2, false)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	src := hosts[0]
	// Route prefix: ports from the source's switch up to the root.
	sw, _ := g.HostAttachment(src)
	var prefix []topology.PortID
	for sw != r.ud.Root {
		parent := r.ud.Parent(sw)
		var port topology.PortID = topology.NoPort
		for pi, p := range g.Node(sw).Ports {
			if p.Wired() && p.Peer == parent {
				port = topology.PortID(pi)
			}
		}
		prefix = append(prefix, port)
		sw = parent
	}
	h, err := route.Broadcast(prefix)
	if err != nil {
		t.Fatal(err)
	}
	wormIDs++
	w := &flit.Worm{ID: wormIDs, Src: src, Dst: topology.None, Mode: flit.Broadcast,
		Group: -1, Header: h, PayloadLen: 64}
	if err := r.f.Inject(src, w); err != nil {
		t.Fatal(err)
	}
	r.run(t, 0)
	got := r.deliveredHosts()
	if len(got) != len(hosts) {
		t.Fatalf("broadcast reached %d of %d hosts: %v", len(got), len(hosts), got)
	}
	for _, hst := range hosts {
		if got[hst] != 1 {
			t.Fatalf("host %d received %d copies", hst, got[hst])
		}
	}
}

func TestBroadcastRequiresUpDown(t *testing.T) {
	g := topology.Star(2)
	k := des.NewKernel()
	f, err := New(k, g, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := &flit.Worm{ID: 1, Src: g.Hosts()[0], Mode: flit.Broadcast,
		Header: []byte{route.BroadcastPort}, PayloadLen: 1}
	if err := f.Inject(g.Hosts()[0], w); err == nil {
		t.Fatal("broadcast without up/down routing accepted")
	}
}

// TestNewRejectsBadConfig: a configuration no fabric can be built from is an
// error from New, never a panic.
func TestNewRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{NumVCs: 9}, "network: NumVCs 9 outside [1,4]"},
		{Config{NumVCs: -1}, "network: NumVCs -1 outside [1,4]"},
		{Config{GoMark: 60}, "network: GoMark 60 above StopMark 56"},
		{Config{StopMark: -5, GoMark: -10}, "network: negative StopMark -5"},
		{Config{GoMark: -1}, "network: negative GoMark -1"},
		{Config{ArbIters: -3}, "network: negative ArbIters -3"},
	} {
		_, err := New(des.NewKernel(), topology.Star(2), nil, tc.cfg)
		if err == nil || err.Error() != tc.want {
			t.Errorf("New(%+v) error = %v, want %q", tc.cfg, err, tc.want)
		}
	}
}

func TestInjectValidation(t *testing.T) {
	g := topology.Star(2)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	if err := r.f.Inject(g.Switches()[0], &flit.Worm{Header: []byte{0}}); err == nil {
		t.Fatal("inject at switch accepted")
	}
	if err := r.f.Inject(hosts[0], &flit.Worm{}); err == nil {
		t.Fatal("headerless worm accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Counters, des.Time, int) {
		g := topology.Torus(3, 3, 1, 1)
		k := des.NewKernel()
		ud, _ := updown.New(g, topology.None)
		var deliveries int
		f, _ := New(k, g, ud, Config{OnDeliver: func(Delivery) { deliveries++ }})
		hosts := g.Hosts()
		id := int64(0)
		for i, src := range hosts {
			for j := 1; j <= 3; j++ {
				dst := hosts[(i+j*2)%len(hosts)]
				if dst == src {
					continue
				}
				rt, _ := ud.Route(src, dst)
				h, _ := route.EncodeUnicast(rt.Ports)
				id++
				f.Inject(src, &flit.Worm{ID: id, Src: src, Dst: dst, Mode: flit.Unicast,
					Group: -1, Header: h, PayloadLen: 50 + i*3 + j})
			}
		}
		k.Run(0)
		return f.Counters(), k.Now(), deliveries
	}
	c1, t1, d1 := run()
	c2, t2, d2 := run()
	if c1 != c2 || t1 != t2 || d1 != d2 {
		t.Fatalf("nondeterministic: %+v@%d(%d) vs %+v@%d(%d)", c1, t1, d1, c2, t2, d2)
	}
	if d1 == 0 {
		t.Fatal("no deliveries")
	}
}

func TestStalledFalseWhenIdle(t *testing.T) {
	g := topology.Star(2)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	r.f.Inject(hosts[0], r.unicast(t, hosts[0], hosts[1], 10))
	r.run(t, 0)
	if r.f.Stalled(100) {
		t.Fatal("idle fabric reported stalled")
	}
}

func TestLinkStatsCountFlits(t *testing.T) {
	g := topology.Star(2)
	r := newRig(t, g, Config{})
	hosts := g.Hosts()
	r.f.Inject(hosts[0], r.unicast(t, hosts[0], hosts[1], 10))
	r.run(t, 0)
	total := int64(0)
	for _, c := range r.f.Metrics().Channels {
		total += c.Busy
	}
	// 12 flits from host (1 hdr + 10 + tail), 11 to destination.
	if total != 23 {
		t.Fatalf("total carried = %d, want 23", total)
	}
}

func BenchmarkTorusUnicastSaturation(b *testing.B) {
	g := topology.Torus(4, 4, 1, 1)
	k := des.NewKernel()
	ud, _ := updown.New(g, topology.None)
	f, _ := New(k, g, ud, Config{})
	hosts := g.Hosts()
	id := int64(0)
	for i, src := range hosts {
		dst := hosts[(i+5)%len(hosts)]
		rt, _ := ud.Route(src, dst)
		h, _ := route.EncodeUnicast(rt.Ports)
		for j := 0; j < 4; j++ {
			id++
			f.Inject(src, &flit.Worm{ID: id, Src: src, Dst: dst, Mode: flit.Unicast,
				Group: -1, Header: h, PayloadLen: 400})
		}
	}
	b.ResetTimer()
	k.Run(des.Time(b.N))
}

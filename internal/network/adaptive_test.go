package network

import (
	"bytes"
	"slices"
	"testing"

	"wormlan/internal/flit"
	"wormlan/internal/rng"
	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// adaptiveRig builds a rig with the Duato adaptive table installed.
func adaptiveRig(t *testing.T, g *topology.Graph, nvc int) *rig {
	t.Helper()
	r := newRig(t, g, Config{NumVCs: nvc, VCHeaders: true})
	if err := r.f.InstallAdaptive(r.ud); err != nil {
		t.Fatal(err)
	}
	return r
}

// adaptiveWorm builds a unicast worm carrying only the route-anywhere
// marker; every switch decides the next hop itself.
func adaptiveWorm(src, dst topology.NodeID, payload int) *flit.Worm {
	wormIDs++
	return &flit.Worm{ID: wormIDs, Src: src, Dst: dst, Mode: flit.Unicast,
		Group: -1, Header: []byte{route.AdaptivePort}, PayloadLen: payload}
}

// TestAdaptiveMarkerDelivers: the marker worm crosses the dumbbell and
// lands intact, with conservation and no held channels.
func TestAdaptiveMarkerDelivers(t *testing.T) {
	g, _, _, hosts := vcGraph()
	r := adaptiveRig(t, g, 2)
	w := adaptiveWorm(hosts["a"], hosts["c"], 80)
	if err := r.f.Inject(hosts["a"], w); err != nil {
		t.Fatal(err)
	}
	r.run(t, 0)
	if len(r.deliveries) != 1 || r.deliveries[0].Host != hosts["c"] {
		t.Fatalf("deliveries %+v", r.deliveries)
	}
	if d := r.deliveries[0]; d.Worm.PayloadLen != 80 {
		t.Fatalf("payload %d delivered, want 80", d.Worm.PayloadLen)
	}
	c := r.f.Counters()
	if c.Injected != 1 || c.Delivered != 1 || c.WormsDropped != 0 {
		t.Fatalf("counters %+v", c)
	}
	if held := r.f.HeldChannels(); len(held) != 0 {
		t.Fatalf("%d held channels after drain", len(held))
	}
}

// TestAdaptiveFallsBackToEscape: with every adaptive lane of the trunk
// held by a streaming worm, the marker worm takes the lane-0 escape route
// instead of waiting forever on an adaptive lane.
func TestAdaptiveFallsBackToEscape(t *testing.T) {
	g, _, _, hosts := vcGraph()
	r := adaptiveRig(t, g, 2)
	// Long worm pinned to the trunk's lane 1 (the only adaptive lane).
	long := vcWorm(t, hosts["b"], hosts["d"], 600, [2]int{0, 1}, [2]int{2, 0})
	if err := r.f.Inject(hosts["b"], long); err != nil {
		t.Fatal(err)
	}
	probe := adaptiveWorm(hosts["a"], hosts["c"], 40)
	r.k.At(10, func() {
		if err := r.f.Inject(hosts["a"], probe); err != nil {
			t.Fatal(err)
		}
	})
	r.run(t, 0)
	if len(r.deliveries) != 2 {
		t.Fatalf("%d deliveries, want 2", len(r.deliveries))
	}
	at := r.deliveryTime(hosts["c"])
	if at < 0 {
		t.Fatal("probe never delivered")
	}
	// Escape shares the wire flit-by-flit with the lane-1 stream, so the
	// probe lands long before the 600-byte worm would have drained.
	if at > 250 {
		t.Fatalf("probe delivered at t=%d: escape lane did not engage", at)
	}
	c := r.f.Counters()
	if c.Injected != 2 || c.Delivered != 2 {
		t.Fatalf("counters %+v", c)
	}
}

// TestAdaptiveRoutesAroundDeadLink: on a 4-ring both directions from the
// source's switch are minimal-ish; killing the escape direction's first
// link before injection makes the candidate scan pick the surviving side,
// with no table rebuild at all.
func TestAdaptiveRoutesAroundDeadLink(t *testing.T) {
	g := topology.Ring(4, 1)
	r := adaptiveRig(t, g, 2)
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[2]
	// Find the two switch-to-switch ports of the source's attach switch and
	// kill one of them; the other still leads to dst two hops the long way
	// round is equal distance on a 4-ring, so candidates hold both.
	sw, _ := g.HostAttachment(src)
	var swPorts []topology.PortID
	for pi, p := range g.Node(sw).Ports {
		if p.Wired() && g.Node(p.Peer).Kind == topology.Switch {
			swPorts = append(swPorts, topology.PortID(pi))
		}
	}
	if len(swPorts) != 2 {
		t.Fatalf("attach switch has %d switch ports, want 2", len(swPorts))
	}
	if err := r.f.FailLink(sw, swPorts[0]); err != nil {
		t.Fatal(err)
	}
	w := adaptiveWorm(src, dst, 60)
	if err := r.f.Inject(src, w); err != nil {
		t.Fatal(err)
	}
	r.run(t, 0)
	c := r.f.Counters()
	if len(r.deliveries) != 1 || r.deliveries[0].Host != dst {
		t.Fatalf("deliveries %+v (counters %+v)", r.deliveries, c)
	}
	if c.Injected != 1 || c.Delivered != 1 || c.WormsDropped != 0 {
		t.Fatalf("counters %+v", c)
	}
}

// TestAdaptiveUnreachableDropCounted: a marker worm whose destination got
// cut off is drained and attributed, preserving conservation.
func TestAdaptiveUnreachableDropCounted(t *testing.T) {
	g, _, s1, hosts := vcGraph()
	r := adaptiveRig(t, g, 2)
	// Kill every port of s1: c and d become unreachable mid-flight.
	w := adaptiveWorm(hosts["a"], hosts["c"], 200)
	if err := r.f.Inject(hosts["a"], w); err != nil {
		t.Fatal(err)
	}
	r.k.At(15, func() {
		if err := r.f.FailSwitch(s1); err != nil {
			t.Fatal(err)
		}
	})
	r.run(t, 0)
	c := r.f.Counters()
	if c.Delivered != 0 || c.WormsDropped != 1 {
		t.Fatalf("counters %+v", c)
	}
	if c.Injected != c.Delivered+c.WormsDropped {
		t.Fatalf("conservation violated: %+v", c)
	}
	if held := r.f.HeldChannels(); len(held) != 0 {
		t.Fatalf("%d held channels after kill", len(held))
	}
}

// TestAdaptiveEscapesMatchPerPairRoutes: the escape table, read off
// updown's Escapes rows, holds exactly the route a host on each switch
// gets from the surviving up*/down* table — healthy, with dead links, with
// a dead switch, and with a switch partitioned away — and has an escape
// only where the switch also has productive candidates (it is connected
// and not the destination's own attach switch).  Duato's condition holds
// on every candidate: its peer is the destination's attach switch or
// holds an escape to the destination, so a worm that took an adaptive lane
// can always fall back onto the escape lane.
func TestAdaptiveEscapesMatchPerPairRoutes(t *testing.T) {
	g := topology.Torus(4, 4, 2, 1)
	sws := g.Switches()
	links := updown.NewFailures()
	links.FailLink(g, sws[1], 0)
	links.FailLink(g, sws[6], 2)
	dead := updown.NewFailures()
	dead.FailSwitch(sws[5])
	cut := updown.NewFailures()
	for pi, p := range g.Node(sws[15]).Ports {
		if g.Node(p.Peer).Kind == topology.Switch {
			cut.FailLink(g, sws[15], topology.PortID(pi))
		}
	}
	hostOn := map[topology.NodeID]topology.NodeID{} // a host of each switch
	for _, h := range g.Hosts() {
		if sw, _ := g.HostAttachment(h); hostOn[sw] == 0 {
			hostOn[sw] = h
		}
	}
	for name, fail := range map[string]*updown.Failures{"healthy": nil, "links": links, "dead-switch": dead, "partition": cut} {
		ud, err := updown.WithoutEdges(g, topology.None, fail)
		if err != nil {
			t.Fatal(err)
		}
		at, err := NewAdaptiveTable(g, ud)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := ud.NewTableSurviving(false)
		if err != nil {
			t.Fatal(err)
		}
		escapes := 0
		for _, sw := range sws {
			for hi, h := range g.Hosts() {
				var want []byte
				if rt := tbl.Lookup(hostOn[sw], h); len(rt.Ports) > 0 && sw != at.attach[hi] {
					if want, err = route.EncodeUnicast(rt.Ports); err != nil {
						t.Fatal(err)
					}
				}
				slot := int(sw)*at.nh + hi
				if !bytes.Equal(at.escape[slot], want) {
					t.Fatalf("%s: escape %d->%d = %v, want %v", name, sw, h, at.escape[slot], want)
				}
				if (want != nil) != (len(at.cands[slot]) > 0) {
					t.Fatalf("%s: %d->%d has escape %v but candidates %v", name, sw, h, want, at.cands[slot])
				}
				for _, p := range at.cands[slot] {
					peer := g.Node(sw).Ports[p].Peer
					if peer != at.attach[hi] && at.escape[int(peer)*at.nh+hi] == nil {
						t.Fatalf("%s: candidate port %d of %d toward %d leads to %d, which has no escape",
							name, p, sw, h, peer)
					}
				}
				if want != nil {
					escapes++
				}
			}
		}
		if escapes == 0 {
			t.Fatalf("%s: no escape routes at all", name)
		}
	}
}

// TestAdaptiveCandidatesMatchReference holds every (switch, host)
// candidate list to the ports one hop closer to the host's attach switch
// by an all-pairs switch distance (Floyd–Warshall) over the live graph,
// on three fabrics, healthy and under seeded failure sets (link kills plus
// one switch kill).
func TestAdaptiveCandidatesMatchReference(t *testing.T) {
	const inf = 1 << 30
	for _, name := range []string{"torus8x8", "shufflenet24", "clos8x4"} {
		net, err := topology.Named(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		g := net.Graph
		sws := g.Switches()
		var cables []updown.Edge // switch-to-switch cables, one side each
		for _, sw := range sws {
			for pi, p := range g.Node(sw).Ports {
				if p.Wired() && g.Node(p.Peer).Kind == topology.Switch && sw < p.Peer {
					cables = append(cables, updown.Edge{Node: sw, Port: topology.PortID(pi)})
				}
			}
		}
		for seed := uint64(0); seed <= 8; seed++ {
			var fail *updown.Failures
			if seed > 0 {
				r := rng.New(seed, 44)
				fail = updown.NewFailures()
				for i := 0; i < 1+int(seed)%4; i++ {
					c := cables[r.Intn(len(cables))]
					fail.FailLink(g, c.Node, c.Port)
				}
				fail.FailSwitch(sws[r.Intn(len(sws))])
			}
			ud, err := updown.WithoutEdges(g, topology.None, fail)
			if err != nil {
				t.Fatal(err)
			}
			at, err := NewAdaptiveTable(g, ud)
			if err != nil {
				t.Fatal(err)
			}
			n := len(g.Nodes)
			d := make([]int, n*n)
			for i := range d {
				d[i] = inf
			}
			for _, sw := range sws {
				if fail.SwitchDead(sw) {
					continue
				}
				d[int(sw)*n+int(sw)] = 0
				for pi, p := range g.Node(sw).Ports {
					if p.Wired() && g.Node(p.Peer).Kind == topology.Switch && !fail.LinkDead(g, sw, topology.PortID(pi)) {
						d[int(sw)*n+int(p.Peer)] = 1
					}
				}
			}
			for _, k := range sws {
				for _, i := range sws {
					for _, j := range sws {
						if via := d[int(i)*n+int(k)] + d[int(k)*n+int(j)]; via < d[int(i)*n+int(j)] {
							d[int(i)*n+int(j)] = via
						}
					}
				}
			}
			for hi, h := range g.Hosts() {
				dst, _ := g.HostAttachment(h)
				for _, sw := range sws {
					var want []topology.PortID
					if dsw := d[int(sw)*n+int(dst)]; ud.Reachable(h) && dsw > 0 && dsw < inf {
						for pi, p := range g.Node(sw).Ports {
							if p.Wired() && g.Node(p.Peer).Kind == topology.Switch &&
								!fail.LinkDead(g, sw, topology.PortID(pi)) && d[int(p.Peer)*n+int(dst)] == dsw-1 {
								want = append(want, topology.PortID(pi))
							}
						}
					}
					if got := at.cands[int(sw)*at.nh+hi]; !slices.Equal(got, want) {
						t.Fatalf("%s seed %d: candidates at %d toward host %d = %v, want %v",
							name, seed, sw, h, got, want)
					}
				}
			}
		}
	}
}

func BenchmarkAdaptiveTable(b *testing.B) {
	torus := topology.Torus(8, 8, 1, 1)
	failed := updown.NewFailures()
	sw := torus.Switches()[3]
	for pi, p := range torus.Node(sw).Ports {
		if torus.Node(p.Peer).Kind == topology.Switch {
			failed.FailLink(torus, sw, topology.PortID(pi)) // one dead cable
			break
		}
	}
	failed.FailSwitch(torus.Switches()[32])
	for _, c := range []struct {
		name string
		g    *topology.Graph
		fail *updown.Failures
	}{
		{"torus8x8", torus, nil},
		{"shufflenet24", topology.BidirShufflenet(2, 3, 1), nil},
		{"torus8x8-failed", torus, failed},
	} {
		b.Run(c.name, func(b *testing.B) {
			ud, err := updown.WithoutEdges(c.g, topology.None, c.fail)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchAdaptive, err = NewAdaptiveTable(c.g, ud); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchAdaptive keeps BenchmarkAdaptiveTable's result live.
var benchAdaptive *AdaptiveTable

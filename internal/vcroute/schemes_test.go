package vcroute

import (
	"errors"
	"strings"
	"testing"

	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// TestClosTableSound: every route of the 8-leaf/4-spine fabric walks the
// topology to its destination, and inter-leaf pairs use the deterministic
// (srcLeaf+dstLeaf) mod nSpine spine.
func TestClosTableSound(t *testing.T) {
	g, geo := topology.ClosWithGeom(8, 4, 8, 1)
	tbl, err := Clos(g, geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTable(g, tbl, false, true); err != nil {
		t.Fatal(err)
	}
	// Spot-check spine determinism: leaf 1 -> leaf 6 must ride spine 3.
	src, dst := geo.Hosts[1][0], geo.Hosts[6][0]
	sws := walkedSwitches(g, tbl.Lookup(src, dst), nil)
	if len(sws) != 3 || sws[1] != geo.Spine[(1+6)%4] {
		t.Fatalf("route %d->%d rides %v, want spine %d", src, dst, sws, geo.Spine[3])
	}
}

// TestClosSpineFailover: killing the deterministic spine's uplink reroutes
// the affected pairs onto the next live spine instead of pruning them.
func TestClosSpineFailover(t *testing.T) {
	g, geo := topology.ClosWithGeom(4, 2, 2, 1)
	fail := updown.NewFailures()
	// Kill leaf0's cable to spine 0.
	fail.Links[updown.Edge{Node: geo.Leaf[0], Port: geo.Up[0][0]}] = true
	fail.Links[updown.Edge{Node: geo.Spine[0], Port: geo.Down[0][0]}] = true
	tbl, err := Clos(g, geo, fail)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTable(g, tbl, false, true); err != nil {
		t.Fatal(err)
	}
	// leaf0 -> leaf2 would deterministically ride spine (0+2)%2 = 0; the
	// dead uplink forces spine 1.
	sws := walkedSwitches(g, tbl.Lookup(geo.Hosts[0][0], geo.Hosts[2][0]), nil)
	if len(sws) != 3 || sws[1] != geo.Spine[1] {
		t.Fatalf("failover route rides %v, want spine %d", sws, geo.Spine[1])
	}
}

// TestShufflenetTableSound: the (2,4) 64-host shufflenet routes every pair
// strictly forward with wrap-count lanes, and no route needs a lane above
// 2 or more than 2k-1 backbone hops.
func TestShufflenetTableSound(t *testing.T) {
	g, geo := topology.BidirShufflenetWithGeom(2, 4, 1)
	tbl, err := Shufflenet(g, geo, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTable(g, tbl, true, true); err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	maxHops := 2*geo.K - 1
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			rt := tbl.Lookup(src, dst)
			if len(rt.Ports)-1 > maxHops {
				t.Fatalf("%d->%d takes %d backbone hops (max %d)", src, dst, len(rt.Ports)-1, maxHops)
			}
			prevLane := 0
			for i, pb := range rt.Ports[:len(rt.Ports)-1] {
				_, vc := route.DecodeVCPort(byte(pb))
				if vc > 2 {
					t.Fatalf("%d->%d hop %d rides lane %d (max 2)", src, dst, i, vc)
				}
				if vc < prevLane {
					t.Fatalf("%d->%d hop %d drops from lane %d to %d", src, dst, i, prevLane, vc)
				}
				prevLane = vc
			}
		}
	}
}

// TestShufflenetFailover: with a forward link dead, pairs that can absorb
// the detour in their free digits reroute (m = d+k has p^(m-k) candidate
// paths); the rebuilt table stays sound.
func TestShufflenetFailover(t *testing.T) {
	g, geo := topology.BidirShufflenetWithGeom(2, 3, 1)
	full, err := Shufflenet(g, geo, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Kill switch (0,0)'s forward arc for digit 0.
	sw := geo.Sw[0][0]
	p := geo.Fwd[0][0][0]
	peer := g.Node(sw).Ports[p].Peer
	peerPort := g.Node(sw).Ports[p].PeerPort
	fail := updown.NewFailures()
	fail.Links[updown.Edge{Node: sw, Port: p}] = true
	fail.Links[updown.Edge{Node: peer, Port: peerPort}] = true
	tbl, err := Shufflenet(g, geo, 3, fail)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTable(g, tbl, true, false); err != nil {
		t.Fatal(err)
	}
	// Every surviving route must genuinely avoid the dead arc.
	hosts := g.Hosts()
	rerouted, pruned := 0, 0
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			rt := tbl.Lookup(src, dst)
			if len(rt.Ports) == 0 {
				pruned++
				continue
			}
			if err := rt.Walk(g, Decoder(true), func(h updown.Hop) error {
				if h.Switch == sw && h.Port == p {
					return errors.New("crosses the dead arc")
				}
				return nil
			}); err != nil {
				t.Fatalf("%d->%d: %v", src, dst, err)
			}
			old := full.Lookup(src, dst)
			if len(old.Ports) > 0 && len(old.Ports) != len(rt.Ports) {
				rerouted++
			}
		}
	}
	if rerouted == 0 {
		t.Fatal("no pair took a longer detour: path diversity unused")
	}
}

// TestAdaptiveTableMarkers: every reachable pair's route is the single
// route-anywhere marker byte, accepted by ValidateTable.
func TestAdaptiveTableMarkers(t *testing.T) {
	g := topology.Torus(4, 4, 1, 1)
	ud, err := updown.New(g, topology.None)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Adaptive(g, ud)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTable(g, tbl, true, true); err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	rt := tbl.Lookup(hosts[0], hosts[5])
	if len(rt.Ports) != 1 || rt.Ports[0] != route.AdaptivePort {
		t.Fatalf("route %v, want the single marker byte", rt.Ports)
	}
}

// TestValidateTableReportsAllPairs: a table with several broken routes is
// diagnosed in one pass — every bad pair named, sorted, not just the
// first.
func TestValidateTableReportsAllPairs(t *testing.T) {
	g := topology.Line(3, 1)
	hosts := g.Hosts()
	routes := make([][]updown.Route, len(hosts))
	for i := range routes {
		routes[i] = make([]updown.Route, len(hosts))
	}
	// Two deliberately broken routes and one missing pair; the rest stay
	// missing too, so requireComplete also fires.
	routes[0][1] = updown.Route{Src: hosts[0], Dst: hosts[1], Ports: []topology.PortID{99}}
	// Port 0 of host 1's switch leads to switch 0, not to host 0.
	routes[1][0] = updown.Route{Src: hosts[1], Dst: hosts[0], Ports: []topology.PortID{0}}
	err := ValidateTable(g, customTable(hosts, routes), false, true)
	if err == nil {
		t.Fatal("broken table validated")
	}
	msg := err.Error()
	for _, want := range []string{"out of range", "delivers to node", "no route"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error misses %q:\n%s", want, msg)
		}
	}
	lines := strings.Split(msg, "\n")
	if len(lines) < 4 {
		t.Fatalf("expected all bad pairs listed, got:\n%s", msg)
	}
	if !sortedLines(lines[1:]) {
		t.Fatalf("findings not sorted:\n%s", msg)
	}
}

func sortedLines(ss []string) bool {
	for i := 1; i < len(ss); i++ {
		if ss[i] < ss[i-1] {
			return false
		}
	}
	return true
}

// TestTorusTieBreakDeterministic is the even-ring tie-break audit: when
// both ring directions are minimal (distance n/2), the chosen direction
// must be a pure function of (src, dst) — independent of map iteration or
// build order.  Rebuilding the table many times must give byte-identical
// routes, and the tie itself must always resolve to the + direction.
func TestTorusTieBreakDeterministic(t *testing.T) {
	g, geo := topology.TorusWithGeom(4, 4, 1, 1)
	ref, err := TorusMinimal(g, geo, 2)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	for rebuild := 0; rebuild < 5; rebuild++ {
		tbl, err := TorusMinimal(g, geo, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst {
					continue
				}
				a, b := ref.Lookup(src, dst), tbl.Lookup(src, dst)
				if len(a.Ports) != len(b.Ports) {
					t.Fatalf("%d->%d: route length diverged across rebuilds", src, dst)
				}
				for i := range a.Ports {
					if a.Ports[i] != b.Ports[i] {
						t.Fatalf("%d->%d hop %d: port %d vs %d across rebuilds",
							src, dst, i, a.Ports[i], b.Ports[i])
					}
				}
			}
		}
	}
	// The equal-distance pair (0,0) -> (0,2) on the 4-ring: both ways are
	// 2 hops; the tie must go +, i.e. the first hop leaves on XPlus.
	src, dst := geo.Hosts[0][0][0], geo.Hosts[0][2][0]
	rt := ref.Lookup(src, dst)
	p, _ := route.DecodeVCPort(byte(rt.Ports[0]))
	if topology.PortID(p) != geo.XPlus[0][0] {
		t.Fatalf("tie-break took port %d, want XPlus %d", p, geo.XPlus[0][0])
	}
	// And the same in Y: (0,0) -> (2,0) must leave on YPlus.
	src, dst = geo.Hosts[0][0][0], geo.Hosts[2][0][0]
	rt = ref.Lookup(src, dst)
	p, _ = route.DecodeVCPort(byte(rt.Ports[0]))
	if topology.PortID(p) != geo.YPlus[0][0] {
		t.Fatalf("Y tie-break took port %d, want YPlus %d", p, geo.YPlus[0][0])
	}
}

// TestRingStepsTieBreak pins the tie-break rule itself on even rings of
// several sizes: equal distances always resolve to +1.
func TestRingStepsTieBreak(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8} {
		for a := 0; a < n; a++ {
			b := (a + n/2) % n
			steps, dir := ringSteps(a, b, n)
			if steps != n/2 || dir != +1 {
				t.Fatalf("ringSteps(%d, %d, %d) = (%d, %d), want (%d, +1)", a, b, n, steps, dir, n/2)
			}
		}
	}
}

// TestValidateTableHostLane: a VC-encoded route whose final hop delivers to
// the host on a lane above 0 is reported; the same route on lane 0 is sound.
func TestValidateTableHostLane(t *testing.T) {
	g := topology.Line(2, 1)
	hosts := g.Hosts()
	s0, _ := g.HostAttachment(hosts[0])
	s1, hostPort := g.HostAttachment(hosts[1])
	trunk := topology.NoPort
	for pi, p := range g.Node(s0).Ports {
		if p.Peer == s1 {
			trunk = topology.PortID(pi)
		}
	}
	for _, lane := range []int{0, 1} {
		b0, err := route.EncodeVCPort(trunk, 0)
		if err != nil {
			t.Fatal(err)
		}
		b1, err := route.EncodeVCPort(hostPort, lane)
		if err != nil {
			t.Fatal(err)
		}
		routes := [][]updown.Route{make([]updown.Route, 2), make([]updown.Route, 2)}
		routes[0][1] = updown.Route{Src: hosts[0], Dst: hosts[1],
			Ports: []topology.PortID{topology.PortID(b0), topology.PortID(b1)}}
		err = ValidateTable(g, customTable(hosts, routes), true, false)
		if got := err != nil && strings.Contains(err.Error(), "hosts speak lane 0"); got != (lane > 0) {
			t.Fatalf("host delivery on lane %d: %v", lane, err)
		}
	}
}

// customTable files routes (square over hosts, routes[i][j] from hosts[i]
// to hosts[j]) through an updown.TableBuilder.
func customTable(hosts []topology.NodeID, routes [][]updown.Route) *updown.Table {
	b := updown.NewTableBuilder(hosts, hosts)
	for i := range hosts {
		for j := range hosts {
			b.Row = append(b.Row, routes[i][j].Ports...)
			b.EndRoute()
		}
	}
	return b.Table()
}

package vcroute

import (
	"regexp"
	"testing"

	"wormlan/internal/route"
	"wormlan/internal/topology"
)

// walkTorus follows a VC-encoded route through the graph, checking every
// byte names a wired port and returning the lanes used per hop alongside
// whether each hop crossed its ring's wrap edge.
func walkTorus(t *testing.T, g *topology.Graph, geo *topology.TorusGeom,
	src, dst topology.NodeID) (lanes []int, wraps []bool) {
	t.Helper()
	node := g.Node(src).Ports[0].Peer // attach switch
	tab, err := TorusMinimal(g, geo, 2)
	if err != nil {
		t.Fatalf("TorusMinimal: %v", err)
	}
	rt := tab.Lookup(src, dst)
	if len(rt.Ports) == 0 {
		t.Fatalf("no route %d->%d", src, dst)
	}
	// Coordinates per switch, for wrap detection.
	coord := map[topology.NodeID][2]int{}
	for r := range geo.Sw {
		for c := range geo.Sw[r] {
			coord[geo.Sw[r][c]] = [2]int{r, c}
		}
	}
	for hop, pb := range rt.Ports {
		p, vc := route.DecodeVCPort(byte(pb))
		ports := g.Node(node).Ports
		if p >= len(ports) || !ports[p].Wired() {
			t.Fatalf("route %d->%d hop %d: port %d not wired at switch %d", src, dst, hop, p, node)
		}
		next := ports[p].Peer
		lanes = append(lanes, vc)
		wrapped := false
		if nc, ok := coord[next]; ok {
			cc := coord[node]
			if cc[0] == nc[0] { // x hop
				wrapped = (cc[1] == geo.Cols-1 && nc[1] == 0) || (cc[1] == 0 && nc[1] == geo.Cols-1)
			} else {
				wrapped = (cc[0] == geo.Rows-1 && nc[0] == 0) || (cc[0] == 0 && nc[0] == geo.Rows-1)
			}
		}
		wraps = append(wraps, wrapped)
		node = next
	}
	if node != dst {
		t.Fatalf("route %d->%d ends at node %d", src, dst, node)
	}
	return lanes, wraps
}

// TestTorusMinimalRoutesReachAndStayMinimal walks every host pair of a
// 4x4 torus: routes terminate at the destination and take exactly the
// minimal switch-hop count (ring distance x + ring distance y).
func TestTorusMinimalRoutesReachAndStayMinimal(t *testing.T) {
	g, geo := topology.TorusWithGeom(4, 4, 1, 2)
	tab, err := TorusMinimal(g, geo, 2)
	if err != nil {
		t.Fatalf("TorusMinimal: %v", err)
	}
	hosts := g.Hosts()
	at := map[topology.NodeID][2]int{}
	for r := range geo.Hosts {
		for c := range geo.Hosts[r] {
			for _, id := range geo.Hosts[r][c] {
				at[id] = [2]int{r, c}
			}
		}
	}
	ringDist := func(a, b, n int) int {
		d := (b - a + n) % n
		if n-d < d {
			d = n - d
		}
		return d
	}
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			walkTorus(t, g, geo, src, dst)
			sc, dc := at[src], at[dst]
			want := ringDist(sc[1], dc[1], geo.Cols) + ringDist(sc[0], dc[0], geo.Rows) + 1
			if got := tab.Lookup(src, dst).Hops(); got != want {
				t.Errorf("%d->%d: %d hops, minimal is %d", src, dst, got, want)
			}
		}
	}
}

// TestTorusDatelineDiscipline checks the deadlock-freedom invariants on
// every route of a 5x3 torus (odd sizes exercise both directions and
// asymmetric ties): lane 1 is entered exactly after a wrap crossing, a
// wrap edge is never traversed on lane 1, and the host hop rides lane 0.
func TestTorusDatelineDiscipline(t *testing.T) {
	g, geo := topology.TorusWithGeom(5, 3, 1, 1)
	hosts := g.Hosts()
	sawLane1 := false
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			lanes, wraps := walkTorus(t, g, geo, src, dst)
			last := len(lanes) - 1
			if lanes[last] != 0 {
				t.Fatalf("%d->%d: host hop on lane %d", src, dst, lanes[last])
			}
			crossed := false
			for hop := 0; hop < last; hop++ {
				if wraps[hop] && lanes[hop] == 1 {
					t.Fatalf("%d->%d hop %d: wrap edge traversed on lane 1", src, dst, hop)
				}
				// Lane is 1 iff this dimension's wrap was already crossed.
				want := 0
				if crossed {
					want = 1
				}
				// Dimension change resets the lane; detect it by a lane-0
				// hop after a crossing, which must be a y hop following
				// x-dimension completion.
				if lanes[hop] != want {
					if !(crossed && lanes[hop] == 0) {
						t.Fatalf("%d->%d hop %d: lane %d, want %d", src, dst, hop, lanes[hop], want)
					}
					crossed = false
				}
				if lanes[hop] == 1 {
					sawLane1 = true
				}
				if wraps[hop] {
					crossed = true
				}
			}
		}
	}
	if !sawLane1 {
		t.Fatal("no route ever used lane 1: dateline switching untested")
	}
}

// TestTorusMinimalNeedsTwoLanes: the scheme refuses nvc < 2.
func TestTorusMinimalNeedsTwoLanes(t *testing.T) {
	g, geo := topology.TorusWithGeom(3, 3, 1, 1)
	if _, err := TorusMinimal(g, geo, 1); err == nil {
		t.Fatal("TorusMinimal accepted a single lane")
	}
	if _, err := TorusMinimal(g, nil, 2); err == nil {
		t.Fatal("TorusMinimal accepted a nil geometry")
	}
}

// TestTorusMinimalProvesOnlyWithLanes: the dateline table is deadlock-free
// as encoded, and the same routes read with their lane bits stripped close
// a ring cycle, which the proof names channel by channel on lane 0.
func TestTorusMinimalProvesOnlyWithLanes(t *testing.T) {
	g, geo := topology.TorusWithGeom(4, 4, 1, 1)
	tbl, err := TorusMinimal(g, geo, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Prove(g, Decoder(true)); err != nil {
		t.Fatalf("dateline table: %v", err)
	}
	stripped := func(b topology.PortID) (topology.PortID, int) {
		p, _ := Decoder(true)(b)
		return p, 0
	}
	err = tbl.Prove(g, stripped)
	cycle := regexp.MustCompile(`cycle of \d+ channels \(switch/port/lane\): (\d+/\d+/0 -> )+\d+/\d+/0$`)
	if err == nil || !cycle.MatchString(err.Error()) {
		t.Fatalf("lane-stripped table: %v, want a named lane-0 cycle", err)
	}
}

// TestFullMeshRoutes: every pair routes in at most two switch hops plus
// host delivery, through a port actually wired to the destination's
// attach switch.
func TestFullMeshRoutes(t *testing.T) {
	g := topology.FullMesh(6, 2, 1)
	tab, err := FullMesh(g)
	if err != nil {
		t.Fatalf("FullMesh: %v", err)
	}
	hosts := g.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			rt := tab.Lookup(src, dst)
			if rt.Hops() > 2 {
				t.Fatalf("%d->%d: %d hops on a full mesh", src, dst, rt.Hops())
			}
			// Walk it.
			node := g.Node(src).Ports[0].Peer
			for hop, pb := range rt.Ports {
				ports := g.Node(node).Ports
				if int(pb) >= len(ports) || !ports[pb].Wired() {
					t.Fatalf("%d->%d hop %d: bad port %d at %d", src, dst, hop, pb, node)
				}
				node = ports[pb].Peer
			}
			if node != dst {
				t.Fatalf("%d->%d: route ends at %d", src, dst, node)
			}
		}
	}
}

// TestFullMeshRejectsNonMesh: a torus is not a full mesh; distant switch
// pairs must be reported, not silently misrouted.
func TestFullMeshRejectsNonMesh(t *testing.T) {
	g := topology.Torus(4, 4, 1, 1)
	if _, err := FullMesh(g); err == nil {
		t.Fatal("FullMesh accepted a torus")
	}
}

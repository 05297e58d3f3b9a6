package updown

import (
	"fmt"
	"strings"
	"testing"

	"wormlan/internal/topology"
)

func mustRouting(t *testing.T, g *topology.Graph) *Routing {
	t.Helper()
	r, err := New(g, topology.None)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func allPairRoutes(t *testing.T, r *Routing, treeOnly bool) []Route {
	t.Helper()
	tbl, err := r.NewTable(treeOnly)
	if err != nil {
		t.Fatal(err)
	}
	var routes []Route
	for _, a := range tbl.Hosts {
		for _, b := range tbl.Hosts {
			if a == b {
				continue
			}
			rt := tbl.Lookup(a, b)
			if err := r.VerifyRoute(rt); err != nil {
				t.Fatalf("route %d->%d invalid: %v", a, b, err)
			}
			routes = append(routes, rt)
		}
	}
	return routes
}

func TestLevelsOnLine(t *testing.T) {
	g := topology.Line(4, 1)
	r := mustRouting(t, g)
	sw := g.Switches()
	for i, s := range sw {
		if r.Level[s] != i {
			t.Fatalf("switch %d level = %d, want %d", s, r.Level[s], i)
		}
	}
	if r.Parent(sw[0]) != topology.None {
		t.Fatal("root has a parent")
	}
	for i := 1; i < len(sw); i++ {
		if r.Parent(sw[i]) != sw[i-1] {
			t.Fatalf("parent of s%d = %d", i, r.Parent(sw[i]))
		}
	}
}

func TestRouteSingleSwitch(t *testing.T) {
	g := topology.Star(4)
	r := mustRouting(t, g)
	hosts := g.Hosts()
	rt, err := r.Route(hosts[0], hosts[2])
	if err != nil {
		t.Fatal(err)
	}
	if rt.Hops() != 1 {
		t.Fatalf("star route hops = %d, want 1", rt.Hops())
	}
	if err := r.VerifyRoute(rt); err != nil {
		t.Fatal(err)
	}
}

func TestRouteToSelfFails(t *testing.T) {
	g := topology.Star(2)
	r := mustRouting(t, g)
	h := g.Hosts()[0]
	if _, err := r.Route(h, h); err == nil {
		t.Fatal("route to self succeeded")
	}
}

func TestRouteEndpointsMustBeHosts(t *testing.T) {
	g := topology.Line(2, 1)
	r := mustRouting(t, g)
	if _, err := r.Route(g.Switches()[0], g.Hosts()[0]); err == nil {
		t.Fatal("switch endpoint accepted")
	}
}

func TestRouteLine(t *testing.T) {
	g := topology.Line(4, 1)
	r := mustRouting(t, g)
	hosts := g.Hosts()
	rt, err := r.Route(hosts[0], hosts[3])
	if err != nil {
		t.Fatal(err)
	}
	if rt.Hops() != 4 { // 3 switch-switch hops + final host port
		t.Fatalf("line route hops = %d, want 4", rt.Hops())
	}
}

func TestAllPairsLegalOnAllTopologies(t *testing.T) {
	cases := map[string]*topology.Graph{
		"torus4x4":   topology.Torus(4, 4, 1, 1),
		"torus8x8":   topology.Torus(8, 8, 1, 1),
		"shufflenet": topology.BidirShufflenet(2, 3, 1000),
		"myrinet4":   topology.Myrinet4(),
		"fattree":    topology.FatTreeish(4, 2, true),
		"random":     topology.Random(12, 4, 5),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			r := mustRouting(t, g)
			allPairRoutes(t, r, false)
			tbl, err := r.NewTable(false)
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.Prove(g, nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
	}
}

func TestTreeOnlyRoutesAvoidCrosslinks(t *testing.T) {
	g := topology.FatTreeish(4, 2, true)
	r := mustRouting(t, g)
	routes := allPairRoutes(t, r, true)
	for _, rt := range routes {
		if err := rt.Walk(g, nil, func(h Hop) error {
			if !r.InTree(h.Switch, h.Port) {
				return fmt.Errorf("crosslink at switch %d port %d", h.Switch, h.Port)
			}
			return nil
		}); err != nil {
			t.Fatalf("tree-only route %d->%d: %v", rt.Src, rt.Dst, err)
		}
	}
	tbl, err := r.NewTable(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Prove(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTreeOnlyNoLongerThanNecessary(t *testing.T) {
	// On a tree topology, tree-only and unrestricted routes coincide.
	g := topology.FatTreeish(3, 2, false)
	r := mustRouting(t, g)
	trees, err := r.NewTable(true)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			free, _ := r.Route(a, b)
			tree := trees.Lookup(a, b)
			if free.Hops() != tree.Hops() {
				t.Fatalf("route %d->%d: free %d hops, tree %d hops", a, b, free.Hops(), tree.Hops())
			}
		}
	}
}

func TestUpDownComplementary(t *testing.T) {
	g := topology.Torus(4, 4, 1, 1)
	r := mustRouting(t, g)
	for _, sw := range g.Switches() {
		for pi, p := range g.Node(sw).Ports {
			if !p.Wired() || g.Node(p.Peer).Kind != topology.Switch {
				continue
			}
			here := r.IsUp(sw, topology.PortID(pi))
			back := r.IsUp(p.Peer, p.PeerPort)
			if here == back {
				t.Fatalf("link %d<->%d is up in both directions (or neither)", sw, p.Peer)
			}
		}
	}
}

func TestRouteTable(t *testing.T) {
	g := topology.Myrinet4()
	r := mustRouting(t, g)
	tbl, err := r.NewTable(false)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	rt := tbl.Lookup(hosts[0], hosts[7])
	if err := r.VerifyRoute(rt); err != nil {
		t.Fatal(err)
	}
	if tbl.MeanHops() <= 0 {
		t.Fatal("mean hops not positive")
	}
	direct, _ := r.Route(hosts[0], hosts[7])
	if rt.Hops() != direct.Hops() {
		t.Fatal("table route differs from direct route")
	}
}

func TestUpDownLongerThanShortest(t *testing.T) {
	// The paper notes up/down paths are generally not shortest paths.  On a
	// 5-ring rooted at s0, the clockwise path h2->h4 needs a down->up
	// transition, so the route must detour through the root: 3 switch hops
	// where the shortest path has 2.
	g := topology.Ring(5, 1)
	r := mustRouting(t, g)
	hosts := g.Hosts()
	longer := 0
	var row topology.HopRow
	for _, a := range hosts {
		row.From(g, a)
		for _, b := range hosts {
			if a == b {
				continue
			}
			rt, err := r.Route(a, b)
			if err != nil {
				t.Fatal(err)
			}
			min := row.To(b) + 1 // + final host port
			if rt.Hops() < min {
				t.Fatalf("route %d->%d shorter than shortest path", a, b)
			}
			if rt.Hops() > min {
				longer++
			}
		}
	}
	if longer == 0 {
		t.Fatal("up/down routing never exceeded shortest path on a 5-ring; labelling suspect")
	}
}

func TestRootCongestion(t *testing.T) {
	// Links near the root should carry a disproportionate share of routes
	// ("links near the root may get congested", Section 2).
	g := topology.Torus(4, 4, 1, 1)
	r := mustRouting(t, g)
	routes := allPairRoutes(t, r, false)
	counts := map[topology.NodeID]int{}
	for _, rt := range routes {
		for _, sw := range walked(g, rt) {
			counts[sw]++
		}
	}
	max := 0
	var busiest topology.NodeID
	for sw, c := range counts {
		if c > max {
			max, busiest = c, sw
		}
	}
	if r.Level[busiest] > 1 {
		t.Fatalf("busiest switch %d is at level %d; expected near root", busiest, r.Level[busiest])
	}
}

func TestVerifyRouteCatchesCorruption(t *testing.T) {
	g := topology.Line(3, 1)
	r := mustRouting(t, g)
	hosts := g.Hosts()
	rt, _ := r.Route(hosts[0], hosts[2])
	bad := rt
	bad.Ports = append([]topology.PortID(nil), rt.Ports...)
	bad.Ports[0] = topology.PortID(99)
	if err := r.VerifyRoute(bad); err == nil {
		t.Fatal("corrupted route verified")
	}
	bad2 := rt
	bad2.Dst = hosts[1]
	if err := r.VerifyRoute(bad2); err == nil {
		t.Fatal("route with wrong destination verified")
	}
}

func TestNewRejectsBadRoot(t *testing.T) {
	g := topology.Star(2)
	if _, err := New(g, g.Hosts()[0]); err == nil {
		t.Fatal("host accepted as up/down root")
	}
}

func TestExplicitRoot(t *testing.T) {
	g := topology.Torus(4, 4, 1, 1)
	root := g.Switches()[5]
	r, err := New(g, root)
	if err != nil {
		t.Fatal(err)
	}
	if r.Root != root || r.Level[root] != 0 {
		t.Fatal("explicit root not honoured")
	}
}

// TestVerifyRouteRejectsIllegalWalks: a route that Walk accepts as wired
// and well formed still fails VerifyRoute when it turns from down to up or
// crosses a failed cable — the two rules VerifyRoute adds to the walk.
func TestVerifyRouteRejectsIllegalWalks(t *testing.T) {
	g := topology.Ring(5, 1)
	r := mustRouting(t, g)
	hosts := g.Hosts()
	portTo := func(a, b topology.NodeID) topology.PortID {
		for pi, p := range g.Node(a).Ports {
			if p.Peer == b {
				return topology.PortID(pi)
			}
		}
		t.Fatalf("node %d has no port to %d", a, b)
		return topology.NoPort
	}
	var sw [5]topology.NodeID
	for i := range sw {
		sw[i], _ = g.HostAttachment(hosts[i])
	}
	// Clockwise h2 -> h4 goes down (s2 -> s3, same level, higher ID) and
	// then up (s3 -> s4, toward the root).
	clockwise := Route{Src: hosts[2], Dst: hosts[4],
		Ports: []topology.PortID{portTo(sw[2], sw[3]), portTo(sw[3], sw[4]), portTo(sw[4], hosts[4])}}
	if err := clockwise.Walk(g, nil, func(Hop) error { return nil }); err != nil {
		t.Fatalf("walk rejects a wired route: %v", err)
	}
	if err := r.VerifyRoute(clockwise); err == nil || !strings.Contains(err.Error(), "down->up") {
		t.Fatalf("down->up route: %v", err)
	}
	legal, err := r.Route(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	fail := NewFailures()
	fail.FailLink(g, sw[0], portTo(sw[0], sw[1]))
	cut, err := WithoutEdges(g, topology.None, fail)
	if err != nil {
		t.Fatal(err)
	}
	if err := cut.VerifyRoute(legal); err == nil || !strings.Contains(err.Error(), "failed link") {
		t.Fatalf("route over a failed cable: %v", err)
	}
}

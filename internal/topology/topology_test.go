package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestConnectSymmetry(t *testing.T) {
	g := New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	pa, pb := g.Connect(a, b, 5)
	if g.Node(a).Ports[pa].Peer != b || g.Node(b).Ports[pb].Peer != a {
		t.Fatal("peers not symmetric")
	}
	if g.Node(a).Ports[pa].PeerPort != pb || g.Node(b).Ports[pb].PeerPort != pa {
		t.Fatal("peer ports not symmetric")
	}
	if g.Node(a).Ports[pa].Delay != 5 {
		t.Fatal("delay not recorded")
	}
}

func TestConnectDefaults(t *testing.T) {
	g := New()
	g.DefaultDelay = 7
	a, b := g.AddSwitch(""), g.AddSwitch("")
	pa, _ := g.Connect(a, b, 0)
	if d := g.Node(a).Ports[pa].Delay; d != 7 {
		t.Fatalf("default delay = %d, want 7", d)
	}
}

func TestSelfLinkPanics(t *testing.T) {
	g := New()
	a := g.AddSwitch("a")
	defer func() {
		if recover() == nil {
			t.Fatal("self-link did not panic")
		}
	}()
	g.Connect(a, a, 1)
}

func TestHostAttachment(t *testing.T) {
	g := Line(3, 1)
	hosts := g.Hosts()
	if len(hosts) != 3 {
		t.Fatalf("hosts = %d", len(hosts))
	}
	sw, port := g.HostAttachment(hosts[1])
	if g.Node(sw).Name != "s1" {
		t.Fatalf("host 1 attached to %s", g.Node(sw).Name)
	}
	if port == NoPort {
		t.Fatal("no switch port")
	}
}

func TestHostAttachmentPanicsOnSwitch(t *testing.T) {
	g := Line(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("HostAttachment on a switch did not panic")
		}
	}()
	g.HostAttachment(g.Switches()[0])
}

func TestValidateAllBuilders(t *testing.T) {
	cases := map[string]*Graph{
		"torus8x8":     Torus(8, 8, 1, 1),
		"torus2x2":     Torus(2, 2, 1, 1),
		"torus2x3":     Torus(2, 3, 2, 1),
		"shufflenet":   BidirShufflenet(2, 3, 1000),
		"shuffle p2k2": BidirShufflenet(2, 2, 1),
		"shuffle p3k2": BidirShufflenet(3, 2, 1),
		"myrinet4":     Myrinet4(),
		"line1":        Line(1, 1),
		"line5":        Line(5, 1),
		"star8":        Star(8),
		"fattree":      FatTreeish(4, 3, true),
		"random":       Random(20, 4, 99),
	}
	for name, g := range cases {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTorusShape(t *testing.T) {
	g := Torus(8, 8, 1, 1)
	s := g.Summary()
	if s.Switches != 64 || s.Hosts != 64 {
		t.Fatalf("torus 8x8: %+v", s)
	}
	// 64 switches x 4 torus links / 2 + 64 host links
	if s.Links != 64*4/2+64 {
		t.Fatalf("torus links = %d", s.Links)
	}
	if s.MaxSwitchDegree != 5 {
		t.Fatalf("torus switch degree = %d, want 4+1 host", s.MaxSwitchDegree)
	}
}

func TestTorus2xNNoDuplicateLinks(t *testing.T) {
	g := Torus(2, 2, 1, 1)
	// With wrap dedup: each switch has 2 switch links + 1 host link.
	for _, sw := range g.Switches() {
		if d := g.Node(sw).Degree(); d != 3 {
			t.Fatalf("2x2 torus switch degree = %d, want 3", d)
		}
	}
}

func TestShufflenetShape(t *testing.T) {
	g := BidirShufflenet(2, 3, 1000)
	s := g.Summary()
	if s.Switches != 24 || s.Hosts != 24 {
		t.Fatalf("shufflenet: %+v", s)
	}
	// (p,k)=(2,3): 24 switches x 2 outgoing links = 48 directed = 48
	// full-duplex cables minus self/dup collisions. Every node row*2+j mod 8
	// for distinct rows is distinct unless a==b (row 0 links to row 0? row*2
	// mod 8 == row only for row 0 col-wrap cases).
	if s.Links < 40 {
		t.Fatalf("shufflenet links = %d, suspiciously low", s.Links)
	}
	// Backbone links carry the optical propagation delay.
	swNodes := g.Switches()
	for _, sw := range swNodes {
		for _, p := range g.Node(sw).Ports {
			if g.Node(p.Peer).Kind == Switch && p.Delay != 1000 {
				t.Fatalf("backbone link delay = %d, want 1000", p.Delay)
			}
		}
	}
}

func TestMyrinet4Shape(t *testing.T) {
	g := Myrinet4()
	s := g.Summary()
	if s.Switches != 4 || s.Hosts != 8 {
		t.Fatalf("myrinet4: %+v", s)
	}
	if s.Links != 4+8 {
		t.Fatalf("myrinet4 links = %d", s.Links)
	}
}

// switchHops is the switch-hop metric of one host pair.
func switchHops(g *Graph, a, b NodeID) int {
	var r HopRow
	r.From(g, a)
	return r.To(b)
}

// TestSwitchHops fills one HopRow per source, reusing it across sources
// (and graphs), and pins that a refill of a row with room allocates
// nothing.
func TestSwitchHops(t *testing.T) {
	g := Line(4, 1)
	hosts := g.Hosts()
	tests := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {1, 3, 2}, {3, 1, 2}, {3, 0, 3},
	}
	var r HopRow
	r.From(Line(9, 1), Line(9, 1).Hosts()[8]) // a stale, larger row first
	for _, tc := range tests {
		r.From(g, hosts[tc.a])
		if got := r.To(hosts[tc.b]); got != tc.want {
			t.Errorf("hops(h%d,h%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { r.From(g, hosts[2]) }); n != 0 {
		t.Fatalf("refilling a HopRow allocated %v times, want 0", n)
	}
}

func TestSwitchHopsSameSwitch(t *testing.T) {
	g := Star(4)
	hosts := g.Hosts()
	if got := switchHops(g, hosts[0], hosts[3]); got != 0 {
		t.Fatalf("same-switch hops = %d, want 0", got)
	}
}

// TestHostConnectivityMatrix checks the paper's host-connectivity graph
// (Sections 5 and 6), the switch-hop count between every pair of hosts:
// symmetric, and on Myrinet4's ring of 4 switches at most 2.
func TestHostConnectivityMatrix(t *testing.T) {
	g := Myrinet4()
	hosts := g.Hosts()
	if len(hosts) != 8 {
		t.Fatalf("connectivity shape %d hosts, want 8", len(hosts))
	}
	for i, a := range hosts {
		for j, b := range hosts {
			if i == j {
				continue
			}
			hops := switchHops(g, a, b)
			if hops != switchHops(g, b, a) {
				t.Fatalf("asymmetric metric at %d,%d", i, j)
			}
			if hops < 0 || hops > 2 {
				t.Fatalf("ring of 4 switches: hops(%d,%d) = %d", i, j, hops)
			}
		}
	}
}

func TestTorusDiameter(t *testing.T) {
	g := Torus(4, 4, 0, 1) // no hosts: pure switch fabric
	s := g.Summary()
	if s.Diameter != 4 { // 2+2 in a 4x4 torus
		t.Fatalf("4x4 torus diameter = %d, want 4", s.Diameter)
	}
}

func TestDOT(t *testing.T) {
	g := Star(2)
	dot := g.DOT()
	for _, want := range []string{"graph wormlan", "hub", "h0", "h1", "--"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// 2 host links => exactly 2 edges
	if n := strings.Count(dot, "--"); n != 2 {
		t.Fatalf("DOT has %d edges, want 2", n)
	}
}

func TestValidateCatchesDisconnected(t *testing.T) {
	g := New()
	g.AddSwitch("a")
	g.AddSwitch("b")
	if err := g.Validate(); err == nil || !strings.HasPrefix(err.Error(), "graph is disconnected") {
		t.Fatalf("disconnected graph: Validate = %v", err)
	}
}

// allNodeDistances is the reference search Summary and Validate are held
// to: hop distances from src to every node, hosts included (-1 if
// unreachable).
func allNodeDistances(g *Graph, src NodeID) []int {
	dist := make([]int, len(g.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, p := range g.Nodes[u].Ports {
			if p.Wired() && dist[p.Peer] < 0 {
				dist[p.Peer] = dist[u] + 1
				queue = append(queue, p.Peer)
			}
		}
	}
	return dist
}

// TestSummaryAndValidateMatchAllNodeBFS holds Summary's diameter and
// Validate's connectivity verdict, both read off switch-only rows, to a
// BFS over every node on every named fabric, on hostless and one-host
// graphs, and on each fabric split in two.
func TestSummaryAndValidateMatchAllNodeBFS(t *testing.T) {
	var graphs []*Graph
	for _, name := range []string{"torus8x8", "torus4x4", "shufflenet24", "shufflenet64",
		"clos8x4", "fullmesh8x4", "fullmesh8x8", "myrinet4", "star:1", "star:5",
		"line:1", "line:4", "ring:3", "ring:7"} {
		n, err := Named(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, n.Graph)
	}
	graphs = append(graphs, Torus(4, 4, 0, 1), Line(1, 1), New())
	for i, g := range graphs {
		want := 0
		connected := true
		for a := range g.Nodes {
			for _, d := range allNodeDistances(g, NodeID(a)) {
				want = max(want, d)
				connected = connected && d >= 0
			}
		}
		if got := g.Summary().Diameter; got != want {
			t.Errorf("graph %d: diameter %d, all-node BFS %d", i, got, want)
		}
		if err := g.Validate(); (err == nil) != connected {
			t.Errorf("graph %d: Validate = %v, all-node BFS connected = %v", i, err, connected)
		}
		// The same fabric twice over, with no cable between the copies.
		split := New()
		for c := 0; c < 2; c++ {
			base := NodeID(len(split.Nodes))
			for _, n := range g.Nodes {
				id := split.AddNode(n.Kind, "")
				for _, p := range n.Ports {
					if p.Wired() {
						p.Peer += base
					}
					split.Node(id).Ports = append(split.Node(id).Ports, p)
				}
			}
		}
		if len(split.Nodes) == 0 {
			continue
		}
		err := split.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), "graph is disconnected") {
			t.Errorf("graph %d doubled: Validate = %v", i, err)
		}
		if got := split.Summary().Diameter; got != want {
			t.Errorf("graph %d doubled: diameter %d, want %d", i, got, want)
		}
	}
}

func TestValidateCatchesUnattachedHost(t *testing.T) {
	g := New()
	s := g.AddSwitch("s")
	g.AddHost("h") // never wired
	h2 := g.AddHost("h2")
	g.Connect(s, h2, 1)
	if err := g.Validate(); err == nil {
		t.Fatal("host with no wired port validated")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(16, 4, 7)
	b := Random(16, 4, 7)
	if a.DOT() != b.DOT() {
		t.Fatal("Random not deterministic in seed")
	}
	c := Random(16, 4, 8)
	if a.DOT() == c.DOT() {
		t.Fatal("Random ignores seed")
	}
}

func TestRandomConnectedProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw%30) + 2
		d := int(dRaw%4) + 2
		g := Random(n, d, seed)
		return g.Validate() == nil
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSummaryCounts(t *testing.T) {
	g := FatTreeish(3, 2, false)
	s := g.Summary()
	if s.Switches != 4 || s.Hosts != 6 || s.Links != 3+6 {
		t.Fatalf("fattree summary %+v", s)
	}
}

func TestKindString(t *testing.T) {
	if Switch.String() != "switch" || Host.String() != "host" {
		t.Fatal("Kind.String broken")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind produced empty string")
	}
}

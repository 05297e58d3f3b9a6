package route

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"wormlan/internal/rng"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// paperTree is the example of Figure 2: at the first switch the worm exits
// ports 1 and 3; the copy from port 1 fans out to ports 2 and 5 (hosts);
// the copy from port 3 fans out to port 4 (then port 1, a host) and port 7
// (a host).
func paperTree() *Tree {
	return &Tree{Branches: []Branch{
		{Port: 1, Sub: &Tree{Branches: []Branch{{Port: 2}, {Port: 5}}}},
		{Port: 3, Sub: &Tree{Branches: []Branch{
			{Port: 4, Sub: &Tree{Branches: []Branch{{Port: 1}}}},
			{Port: 7},
		}}},
	}}
}

func TestEncodeDecodeRoundtripPaperExample(t *testing.T) {
	tr := paperTree()
	h, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(h)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("roundtrip mismatch:\n in: %v\nout: %v", tr, back)
	}
}

func TestPaperExampleSplits(t *testing.T) {
	h, err := Encode(paperTree())
	if err != nil {
		t.Fatal(err)
	}
	splits, err := SplitHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 {
		t.Fatalf("splits = %d, want 2", len(splits))
	}
	if splits[0].Port != 1 || splits[1].Port != 3 {
		t.Fatalf("split ports %d, %d", splits[0].Port, splits[1].Port)
	}
	// The copy exiting port 1 carries the subtree {2, 5}: its own splits
	// must be two host deliveries.
	sub, err := SplitHeader(splits[0].Header)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0].Port != 2 || sub[1].Port != 5 {
		t.Fatalf("port-1 subtree splits: %+v", sub)
	}
	for _, s := range sub {
		if !bytes.Equal(s.Header, []byte{End}) {
			t.Fatalf("host delivery header = %v, want bare END", s.Header)
		}
	}
}

func TestTreeMetrics(t *testing.T) {
	tr := paperTree()
	if n := tr.NumLeaves(); n != 4 {
		t.Fatalf("NumLeaves = %d, want 4", n)
	}
	if d := tr.Depth(); d != 3 {
		t.Fatalf("Depth = %d, want 3", d)
	}
	if f := tr.Fanout(); f != 2 {
		t.Fatalf("Fanout = %d, want 2", f)
	}
}

func TestStringNotation(t *testing.T) {
	s := paperTree().String()
	// Regularized Figure 2 notation: same DFS order of ports as the paper.
	want := "1 P 2 P 5 P E 3 P 4 P 1 P E 7 P E E"
	if s != want {
		t.Fatalf("String = %q, want %q", s, want)
	}
}

func randomTree(r *rng.Source, depth int) *Tree {
	n := r.Intn(3) + 1
	t := &Tree{}
	usedPorts := map[int]bool{}
	for i := 0; i < n; i++ {
		p := r.Intn(32)
		for usedPorts[p] {
			p = r.Intn(32)
		}
		usedPorts[p] = true
		b := Branch{Port: topology.PortID(p)}
		if depth > 0 && r.Intn(2) == 0 {
			b.Sub = randomTree(r, depth-1)
		}
		t.Branches = append(t.Branches, b)
	}
	return t
}

func TestEncodeDecodeRoundtripProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, depthRaw uint8) bool {
		r := rng.New(seed, 1)
		tr := randomTree(r, int(depthRaw%5))
		h, err := Encode(tr)
		if err != nil {
			return false
		}
		back, err := Decode(h)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, back)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitLeavesCountMatchesTree(t *testing.T) {
	// Property: recursively splitting a header visits exactly NumLeaves()
	// host deliveries.
	var countHosts func(h []byte) int
	countHosts = func(h []byte) int {
		if len(h) == 1 && h[0] == End {
			return 1
		}
		splits, err := SplitHeader(h)
		if err != nil {
			t.Fatalf("split: %v", err)
		}
		n := 0
		for _, s := range splits {
			n += countHosts(s.Header)
		}
		return n
	}
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed, 2)
		tr := randomTree(r, 4)
		h, err := Encode(tr)
		if err != nil {
			return false
		}
		return countHosts(h) == tr.NumLeaves()
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := Encode(&Tree{}); err == nil {
		t.Fatal("empty tree encoded")
	}
	if _, err := Encode(&Tree{Branches: []Branch{{Port: 300}}}); err == nil {
		t.Fatal("oversized port encoded")
	}
	if _, err := Encode(&Tree{Branches: []Branch{{Port: End}}}); err == nil {
		t.Fatal("END as port encoded")
	}
	// Subtree exceeding one-byte pointer: a chain of ~90 nodes is > 254 B.
	deep := &Tree{Branches: []Branch{{Port: 1}}}
	for i := 0; i < 90; i++ {
		deep = &Tree{Branches: []Branch{{Port: 1, Sub: deep}}}
	}
	if _, err := Encode(deep); err == nil {
		t.Fatal("oversized subtree encoded")
	}
}

func TestSplitHeaderErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"no end":           {1, 1},
		"port then eof":    {1},
		"zero ptr":         {1, 0, End},
		"ptr overrun":      {1, 9, End},
		"trailing garbage": {1, 1, End, 42},
		"broadcast inside": {BroadcastPort, 1, End},
	}
	for name, h := range cases {
		if _, err := SplitHeader(h); err == nil {
			t.Errorf("%s: malformed header %v accepted", name, h)
		}
	}
}

func TestDecodeBareEnd(t *testing.T) {
	tr, err := Decode([]byte{End})
	if err != nil || tr != nil {
		t.Fatalf("Decode(END) = %v, %v", tr, err)
	}
}

func TestEncodeUnicast(t *testing.T) {
	h, err := EncodeUnicast([]topology.PortID{3, 0, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h, []byte{3, 0, 7}) {
		t.Fatalf("unicast header = %v", h)
	}
	if _, err := EncodeUnicast([]topology.PortID{End}); err == nil {
		t.Fatal("END as unicast port accepted")
	}
}

func TestBroadcastHeader(t *testing.T) {
	h, err := Broadcast([]topology.PortID{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h, []byte{2, 4, BroadcastPort}) {
		t.Fatalf("broadcast header = %v", h)
	}
}

func buildGroupTree(t *testing.T, g *topology.Graph, src topology.NodeID, dsts []topology.NodeID) *Tree {
	t.Helper()
	r, err := updown.New(g, topology.None)
	if err != nil {
		t.Fatal(err)
	}
	var routes [][]topology.PortID
	for _, d := range dsts {
		rt, err := r.Route(src, d)
		if err != nil {
			t.Fatal(err)
		}
		routes = append(routes, rt.Ports)
	}
	tr, err := BuildTree(routes)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildTreeReachesAllDestinations(t *testing.T) {
	for name, g := range map[string]*topology.Graph{
		"torus":      topology.Torus(4, 4, 1, 1),
		"myrinet4":   topology.Myrinet4(),
		"shufflenet": topology.BidirShufflenet(2, 3, 1),
	} {
		t.Run(name, func(t *testing.T) {
			hosts := g.Hosts()
			src := hosts[0]
			dsts := []topology.NodeID{hosts[2], hosts[4], hosts[5], hosts[len(hosts)-1]}
			tr := buildGroupTree(t, g, src, dsts)
			if tr.NumLeaves() != len(dsts) {
				t.Fatalf("tree has %d leaves, want %d", tr.NumLeaves(), len(dsts))
			}
			sw, _ := g.HostAttachment(src)
			got, err := Destinations(g, sw, tr)
			if err != nil {
				t.Fatal(err)
			}
			want := map[topology.NodeID]bool{}
			for _, d := range dsts {
				want[d] = true
			}
			if len(got) != len(dsts) {
				t.Fatalf("delivered to %d hosts, want %d", len(got), len(dsts))
			}
			for _, h := range got {
				if !want[h] {
					t.Fatalf("delivered to unexpected host %d", h)
				}
			}
			// And the encoded form must round-trip.
			h, err := Encode(tr)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Decode(h)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tr, back) {
				t.Fatal("group tree roundtrip mismatch")
			}
		})
	}
}

func TestBuildTreeSharesPrefix(t *testing.T) {
	// On a line, routes from h0 to h2 and h3 share the path through s1; the
	// multicast tree must have a single branch at the first switches.
	g := topology.Line(4, 1)
	hosts := g.Hosts()
	tr := buildGroupTree(t, g, hosts[0], []topology.NodeID{hosts[2], hosts[3]})
	if len(tr.Branches) != 1 {
		t.Fatalf("line tree fans out at first switch: %v", tr)
	}
	if tr.Fanout() != 2 {
		t.Fatalf("fanout = %d, want 2 (split at s2)", tr.Fanout())
	}
}

func TestBuildTreeErrors(t *testing.T) {
	if _, err := BuildTree(nil); err == nil {
		t.Fatal("empty route set accepted")
	}
	g := topology.Line(3, 1)
	r, _ := updown.New(g, topology.None)
	hosts := g.Hosts()
	r01, _ := r.Route(hosts[0], hosts[1])
	if _, err := BuildTree([][]topology.PortID{r01.Ports, r01.Ports}); err == nil {
		t.Fatal("duplicate destination accepted")
	}
	if _, err := BuildTree([][]topology.PortID{r01.Ports, nil}); err == nil {
		t.Fatal("empty route accepted")
	}
	if _, err := BuildTree([][]topology.PortID{{1}, {1, 2}}); err == nil {
		t.Fatal("port both terminal and transit accepted")
	}
}

func TestDestinationsErrors(t *testing.T) {
	g := topology.Line(3, 1)
	sw := g.Switches()[0]
	// Port 99 does not exist.
	if _, err := Destinations(g, sw, &Tree{Branches: []Branch{{Port: 99}}}); err == nil {
		t.Fatal("unwired port accepted")
	}
	// Leaf pointing at a switch.
	var swPort topology.PortID = topology.NoPort
	for pi, p := range g.Node(sw).Ports {
		if p.Wired() && g.Node(p.Peer).Kind == topology.Switch {
			swPort = topology.PortID(pi)
		}
	}
	if _, err := Destinations(g, sw, &Tree{Branches: []Branch{{Port: swPort}}}); err == nil {
		t.Fatal("leaf to switch accepted")
	}
	// Transit pointing at a host.
	var hostPort topology.PortID = topology.NoPort
	for pi, p := range g.Node(sw).Ports {
		if p.Wired() && g.Node(p.Peer).Kind == topology.Host {
			hostPort = topology.PortID(pi)
		}
	}
	sub := &Tree{Branches: []Branch{{Port: 0}}}
	if _, err := Destinations(g, sw, &Tree{Branches: []Branch{{Port: hostPort, Sub: sub}}}); err == nil {
		t.Fatal("transit to host accepted")
	}
	// Rooted at a host.
	if _, err := Destinations(g, g.Hosts()[0], paperTree()); err == nil {
		t.Fatal("tree rooted at host accepted")
	}
}

func BenchmarkEncodeGroupTree(b *testing.B) {
	g := topology.Torus(8, 8, 1, 1)
	r, err := updown.New(g, topology.None)
	if err != nil {
		b.Fatal(err)
	}
	hosts := g.Hosts()
	var routes [][]topology.PortID
	for i := 1; i <= 10; i++ {
		rt, err := r.Route(hosts[0], hosts[i*6])
		if err != nil {
			b.Fatal(err)
		}
		routes = append(routes, rt.Ports)
	}
	tr, err := BuildTree(routes)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(tr); err != nil {
			b.Fatal(err)
		}
	}
}

package mapper

import (
	"testing"
	"testing/quick"

	"wormlan/internal/rng"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

func TestConvergesToLowestRootBFSLevels(t *testing.T) {
	for name, g := range map[string]*topology.Graph{
		"torus":      topology.Torus(4, 4, 1, 1),
		"shufflenet": topology.BidirShufflenet(2, 3, 1000),
		"myrinet4":   topology.Myrinet4(),
		"ring":       topology.Ring(7, 1),
		"fattree":    topology.FatTreeish(4, 2, true),
	} {
		t.Run(name, func(t *testing.T) {
			r, err := Run(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Verify(g, nil); err != nil {
				t.Fatal(err)
			}
			if r.Root != g.Switches()[0] {
				t.Fatalf("root = %d, want lowest switch %d", r.Root, g.Switches()[0])
			}
			// Levels must equal BFS distances: compare against the
			// centralized computation used by the routing layer.
			ud, err := updown.New(g, r.Root)
			if err != nil {
				t.Fatal(err)
			}
			for _, sw := range g.Switches() {
				if r.Level[sw] != ud.Level[sw] {
					t.Fatalf("switch %d: mapper level %d, BFS level %d",
						sw, r.Level[sw], ud.Level[sw])
				}
			}
			if r.Messages == 0 {
				t.Fatal("no messages exchanged")
			}
		})
	}
}

// TestRootMatchesUpdownDefault pins the rule both packages document — the
// lowest-numbered live switch is the root — on every named fabric.  sim.Build
// labels with updown.New(g, topology.None) rather than running the
// distributed mapper first; that is only the same stack while this holds.
func TestRootMatchesUpdownDefault(t *testing.T) {
	for _, name := range []string{"torus8x8", "torus4x4", "shufflenet24", "shufflenet64", "clos8x4",
		"fullmesh8x4", "fullmesh8x8", "myrinet4", "star:6", "line:4", "ring:5"} {
		n, err := topology.Named(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Run(n.Graph, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ud, err := updown.New(n.Graph, topology.None)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Root != ud.Root {
			t.Errorf("%s: mapper elects root %d, updown.New defaults to %d", name, m.Root, ud.Root)
		}
	}
}

// TestMapperFeedsRoutingOnEveryTopology labels up/down from the root the
// mapper elects and checks the table it yields: every host-to-next-host
// route is a legal up*/down* path and the table is deadlock-free.
func TestMapperFeedsRoutingOnEveryTopology(t *testing.T) {
	for name, g := range map[string]*topology.Graph{
		"torus8x8":   topology.Torus(8, 8, 1, 1),
		"shufflenet": topology.BidirShufflenet(2, 3, 1000),
		"myrinet4":   topology.Myrinet4(),
	} {
		t.Run(name, func(t *testing.T) {
			m, err := Run(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			ud, err := updown.New(g, m.Root)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := ud.NewTable(false)
			if err != nil {
				t.Fatal(err)
			}
			hosts := g.Hosts()
			for i := 0; i < len(hosts); i++ {
				rt := tbl.Lookup(hosts[i], hosts[(i+1)%len(hosts)])
				if err := ud.VerifyRoute(rt); err != nil {
					t.Fatal(err)
				}
			}
			if err := tbl.Prove(g, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConvergenceTimeScalesWithDelay(t *testing.T) {
	fast, err := Run(topology.Ring(6, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(topology.Ring(6, 500), nil)
	if err != nil {
		t.Fatal(err)
	}
	if slow.ConvergedAt < 100*fast.ConvergedAt {
		t.Fatalf("convergence %d vs %d did not scale with link delay",
			fast.ConvergedAt, slow.ConvergedAt)
	}
}

func TestRemapAfterLinkFailure(t *testing.T) {
	// Fail one ring link: the map must route the tree the long way round.
	g := topology.Ring(6, 1)
	sws := g.Switches()
	var failPort topology.PortID = topology.NoPort
	for pi, p := range g.Node(sws[0]).Ports {
		if p.Wired() && p.Peer == sws[1] {
			failPort = topology.PortID(pi)
		}
	}
	failed := map[updown.Edge]bool{{Node: sws[0], Port: failPort}: true}
	r, err := Run(g, failed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(g, failed); err != nil {
		t.Fatal(err)
	}
	// s1 can now only be reached the long way: level 5.
	if r.Level[sws[1]] != 5 {
		t.Fatalf("level of s1 after failure = %d, want 5", r.Level[sws[1]])
	}
	// The healthy map reaches it directly.
	healthy, err := Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Level[sws[1]] != 1 {
		t.Fatalf("healthy level of s1 = %d", healthy.Level[sws[1]])
	}
}

func TestDisconnectionDetected(t *testing.T) {
	// Fail both links of a line's middle: the protocol must report the
	// partition instead of returning a bogus tree.
	g := topology.Line(3, 1)
	sws := g.Switches()
	failed := map[updown.Edge]bool{}
	for pi, p := range g.Node(sws[1]).Ports {
		if p.Wired() && g.Node(p.Peer).Kind == topology.Switch {
			failed[updown.Edge{Node: sws[1], Port: topology.PortID(pi)}] = true
		}
	}
	if _, err := Run(g, failed); err == nil {
		t.Fatal("partitioned topology produced a map")
	}
}

func TestFailureSpecifiedFromEitherEnd(t *testing.T) {
	g := topology.Ring(4, 1)
	sws := g.Switches()
	// Find the directed link s0 -> s1 and fail it from s1's side.
	var reversePort topology.PortID = topology.NoPort
	for pi, p := range g.Node(sws[1]).Ports {
		if p.Wired() && p.Peer == sws[0] {
			reversePort = topology.PortID(pi)
		}
	}
	r, err := Run(g, map[updown.Edge]bool{{Node: sws[1], Port: reversePort}: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Level[sws[1]] != 3 {
		t.Fatalf("level of s1 = %d, want 3 (the long way)", r.Level[sws[1]])
	}
}

// TestRunSurvivingMatchesWithoutEdges keeps this package as the oracle for
// the labelling every remap uses: fault recovery relabels the survivors with
// updown.WithoutEdges alone, so on random graphs under random link and
// switch failures (partitions allowed, zero failures the healthy case) the
// distributed protocol and the centralized BFS must elect the same root,
// strand the same switches and agree on every switch's level.
func TestRunSurvivingMatchesWithoutEdges(t *testing.T) {
	cases, partitioned := 0, 0
	err := quick.Check(func(seed uint64, nRaw, dRaw, linksRaw, switchesRaw uint8) bool {
		g := topology.Random(int(nRaw%20)+2, int(dRaw%3)+2, seed)
		sws := g.Switches()
		r := rng.New(seed, 0xfa11)
		fail := updown.NewFailures()
		for i := 0; i < int(linksRaw%8); i++ {
			sw := sws[r.Intn(len(sws))]
			var ports []topology.PortID
			for pi, p := range g.Node(sw).Ports {
				if p.Wired() && g.Node(p.Peer).Kind == topology.Switch {
					ports = append(ports, topology.PortID(pi))
				}
			}
			if len(ports) > 0 {
				fail.FailLink(g, sw, ports[r.Intn(len(ports))])
			}
		}
		for i := 0; i < int(switchesRaw%4); i++ {
			fail.FailSwitch(sws[r.Intn(len(sws))])
		}
		cases++
		m, merr := RunSurviving(g, fail.Links, fail.Switches)
		ud, uerr := updown.WithoutEdges(g, topology.None, fail)
		if merr != nil || uerr != nil {
			return (merr != nil) == (uerr != nil)
		}
		if m.Root != ud.Root || m.Verify(g, fail.Links) != nil {
			return false
		}
		unmapped := map[topology.NodeID]bool{}
		for _, st := range m.Unmapped {
			unmapped[st.Switch] = true
		}
		if len(unmapped) > 0 {
			partitioned++
		}
		for _, sw := range sws {
			stranded := !fail.SwitchDead(sw) && ud.Failures().SwitchDead(sw)
			if m.Level[sw] != ud.Level[sw] || stranded != unmapped[sw] {
				t.Logf("seed %d switch %d: mapper level %d unmapped %v, updown level %d stranded %v",
					seed, sw, m.Level[sw], unmapped[sw], ud.Level[sw], stranded)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if partitioned == 0 || partitioned == cases {
		t.Fatalf("%d of %d cases partitioned: the generator misses a regime", partitioned, cases)
	}
}

func BenchmarkMapTorus8x8(b *testing.B) {
	g := topology.Torus(8, 8, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

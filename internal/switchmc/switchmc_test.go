package switchmc

import (
	"bytes"
	"testing"

	"wormlan/internal/des"
	"wormlan/internal/flit"
	"wormlan/internal/multicast"
	"wormlan/internal/network"
	"wormlan/internal/rng"
	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

type bed struct {
	k   *des.Kernel
	g   *topology.Graph
	ud  *updown.Routing
	tbl *updown.Table // the tree-only table the system routes unicast by
	sys *System

	byHost map[topology.NodeID][]Delivery
}

func newBed(t *testing.T, g *topology.Graph, netCfg network.Config) *bed {
	t.Helper()
	b := &bed{k: des.NewKernel(), g: g, byHost: map[topology.NodeID][]Delivery{}}
	ud, err := updown.New(g, topology.None)
	if err != nil {
		t.Fatal(err)
	}
	f, err := network.New(b.k, g, ud, netCfg)
	if err != nil {
		t.Fatal(err)
	}
	b.ud = ud
	if b.tbl, err = ud.NewTable(true); err != nil {
		t.Fatal(err)
	}
	sys := New(b.k, f, ud, b.tbl)
	sys.OnDeliver = func(d Delivery) { b.byHost[d.Host] = append(b.byHost[d.Host], d) }
	b.sys = sys
	return b
}

func (b *bed) addGroup(t *testing.T, id int, members []topology.NodeID) *multicast.Group {
	t.Helper()
	grp, err := multicast.NewGroup(id, members)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.sys.AddGroup(grp); err != nil {
		t.Fatal(err)
	}
	return grp
}

func TestSwitchMulticastReachesAllMembers(t *testing.T) {
	for name, g := range map[string]*topology.Graph{
		"torus":   topology.Torus(4, 4, 1, 1),
		"fattree": topology.FatTreeish(4, 2, true),
		"myrinet": topology.Myrinet4(),
	} {
		t.Run(name, func(t *testing.T) {
			b := newBed(t, g, network.Config{})
			hosts := g.Hosts()
			members := []topology.NodeID{hosts[0], hosts[2], hosts[3], hosts[5]}
			b.addGroup(t, 1, members)
			if err := b.sys.SendMulticast(hosts[2], 1, 300); err != nil {
				t.Fatal(err)
			}
			if err := b.k.Run(0); err != nil {
				t.Fatal(err)
			}
			for _, m := range members {
				if m == hosts[2] {
					if len(b.byHost[m]) != 0 {
						t.Fatalf("source received its own fabric copy")
					}
					continue
				}
				if len(b.byHost[m]) != 1 || !b.byHost[m][0].Multicast {
					t.Fatalf("member %d deliveries %v", m, b.byHost[m])
				}
			}
		})
	}
}

func TestSwitchMulticastLowerLatencyThanSequential(t *testing.T) {
	// Fabric replication delivers all copies in one worm time; even the
	// earliest copy of an adapter-based circuit needs a second worm time
	// for its first forward.  Compare the spread of delivery times: the
	// fabric's copies land within a propagation spread, not a worm-time
	// spread.
	g := topology.Star(6)
	b := newBed(t, g, network.Config{})
	hosts := g.Hosts()
	b.addGroup(t, 1, hosts)
	if err := b.sys.SendMulticast(hosts[0], 1, 1000); err != nil {
		t.Fatal(err)
	}
	b.k.Run(0)
	var min, max des.Time
	first := true
	for _, ds := range b.byHost {
		for _, d := range ds {
			if first || d.At < min {
				min = d.At
			}
			if first || d.At > max {
				max = d.At
			}
			first = false
		}
	}
	if max-min > 10 {
		t.Fatalf("crossbar replication spread %d byte-times; copies should be near-simultaneous", max-min)
	}
}

func TestUnicastRestrictedToTree(t *testing.T) {
	// With the scheme A discipline, unicast traffic avoids crosslinks: on
	// the fat tree with crosslinks every unicast header is the tree-only
	// table's route, which crosses no crosslink even where the full
	// up*/down* route would, and unicast and multicast both complete.
	g := topology.FatTreeish(4, 2, true)
	b := newBed(t, g, network.Config{StopMark: 8, GoMark: 4})
	full, err := b.ud.NewTable(false)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	b.addGroup(t, 1, hosts[:5])
	// Two pairs across crosslinked spines, two across the root; detours
	// counts the sent pairs whose full up*/down* route takes a crosslink.
	detours := 0
	for i := 0; i < 4; i++ {
		src, dst := hosts[i], hosts[i+2]
		if err := b.sys.SendUnicast(src, dst, 200); err != nil {
			t.Fatal(err)
		}
		if crossings(t, b.ud, full.Lookup(src, dst)) > 0 {
			detours++
		}
	}
	if detours == 0 {
		t.Fatal("no sent pair would take a crosslink unrestricted: the test proves nothing")
	}
	if err := b.sys.SendMulticast(hosts[0], 1, 400); err != nil {
		t.Fatal(err)
	}
	if err := b.k.Run(0); err != nil {
		t.Fatal(err)
	}
	total, unicasts := 0, 0
	for _, ds := range b.byHost {
		total += len(ds)
		for _, d := range ds {
			if d.Multicast {
				continue
			}
			unicasts++
			rt := b.tbl.Lookup(d.Worm.Src, d.Worm.Dst)
			want, err := route.EncodeUnicast(rt.Ports)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d.Worm.Header, want) {
				t.Fatalf("unicast %d->%d header %v, tree-only route %v", d.Worm.Src, d.Worm.Dst, d.Worm.Header, want)
			}
			if n := crossings(t, b.ud, rt); n > 0 {
				t.Fatalf("unicast %d->%d crosses %d crosslinks", d.Worm.Src, d.Worm.Dst, n)
			}
		}
	}
	if total != 4+4 || unicasts != 4 { // 4 unicasts + 4 multicast copies
		t.Fatalf("deliveries %d (%d unicast)", total, unicasts)
	}
}

// crossings counts the hops of rt that leave the up/down spanning tree.
func crossings(t *testing.T, ud *updown.Routing, rt updown.Route) int {
	t.Helper()
	n := 0
	if err := rt.Walk(ud.G, nil, func(h updown.Hop) error {
		if !ud.InTree(h.Switch, h.Port) {
			n++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestErrors(t *testing.T) {
	g := topology.Star(4)
	b := newBed(t, g, network.Config{})
	hosts := g.Hosts()
	b.addGroup(t, 1, hosts[:3])
	if err := b.sys.SendMulticast(hosts[0], 9, 100); err == nil {
		t.Fatal("unknown group accepted")
	}
	if err := b.sys.SendMulticast(hosts[3], 1, 100); err == nil {
		t.Fatal("non-member source accepted")
	}
	grp, _ := multicast.NewGroup(1, hosts)
	if err := b.sys.AddGroup(grp); err == nil {
		t.Fatal("duplicate group accepted")
	}
}

func TestBroadcastFromEveryHost(t *testing.T) {
	g := topology.FatTreeish(3, 2, false)
	hosts := g.Hosts()
	for _, src := range hosts {
		b := newBed(t, g, network.Config{})
		if err := b.sys.SendBroadcast(src, 123); err != nil {
			t.Fatal(err)
		}
		if err := b.k.Run(0); err != nil {
			t.Fatal(err)
		}
		for _, h := range hosts {
			if len(b.byHost[h]) != 1 {
				t.Fatalf("broadcast from %d: host %d got %d copies", src, h, len(b.byHost[h]))
			}
			if b.byHost[h][0].Worm.Mode != flit.Broadcast {
				t.Fatal("wrong mode")
			}
		}
	}
}

// TestSchemeADrainsCrossingTraffic: under scheme A every worm, unicast too,
// is restricted to the up/down spanning tree, so multicasts holding
// IDLE-filled branches and unicasts crossing them on a crosslinked fat tree
// all drain: no stall, and every copy delivered.
func TestSchemeADrainsCrossingTraffic(t *testing.T) {
	g := topology.FatTreeish(4, 2, true)
	b := newBed(t, g, network.Config{StopMark: 8, GoMark: 4})
	hosts := g.Hosts()
	b.addGroup(t, 1, []topology.NodeID{hosts[0], hosts[3], hosts[5], hosts[6]})
	b.addGroup(t, 2, []topology.NodeID{hosts[1], hosts[2], hosts[4], hosts[7]})
	for i := 0; i < 3; i++ {
		b.sys.SendMulticast(hosts[0], 1, 600)
		b.sys.SendMulticast(hosts[1], 2, 600)
		for j := 0; j < len(hosts); j++ {
			b.sys.SendUnicast(hosts[j], hosts[(j+3)%len(hosts)], 400)
		}
	}
	b.k.Run(400_000)
	if b.sys.F.Stalled(5_000) {
		t.Fatal("tree-restricted scheme A stalled")
	}
	delivered := 0
	for _, ds := range b.byHost {
		delivered += len(ds)
	}
	if want := 3 * (3 + 3 + 8); delivered != want { // per round: 3+3 mc copies, 8 unicasts
		t.Fatalf("delivered %d, want %d", delivered, want)
	}
}

// TestTreesForkOnlyOnTheWayDown decodes every header AddGroup builds for
// random groups: the worm climbs to the up/down root through single-branch
// switches, and every fork below sends each branch down a tree port to a
// child switch or out to a host.  A branch up the tree would make a worm
// holding a down branch wait on an up one, the cycle IDLE fill deadlocks
// on.
func TestTreesForkOnlyOnTheWayDown(t *testing.T) {
	for _, name := range []string{"torus8x8", "shufflenet24", "fattree", "myrinet4"} {
		t.Run(name, func(t *testing.T) {
			g := topology.FatTreeish(4, 2, true)
			if name != "fattree" {
				n, err := topology.Named(name, 0)
				if err != nil {
					t.Fatal(err)
				}
				g = n.Graph
			}
			b := newBed(t, g, network.Config{})
			ud := b.sys.UD
			hosts := g.Hosts()
			src := rng.New(31, 0)
			for id := 0; id < 100; id++ {
				size := 2 + src.Intn(min(9, len(hosts)-1))
				var members []topology.NodeID
				for _, i := range src.Perm(len(hosts))[:size] {
					members = append(members, hosts[i])
				}
				grp := b.addGroup(t, id, members)
				for _, s := range grp.Members {
					reached := map[topology.NodeID]int{}
					var walk func(sw topology.NodeID, hdr []byte, down bool)
					walk = func(sw topology.NodeID, hdr []byte, down bool) {
						down = down || sw == ud.Root
						splits, err := route.SplitHeader(hdr)
						if err != nil {
							t.Fatalf("group %d source %d: %v", id, s, err)
						}
						if !down && len(splits) != 1 {
							t.Fatalf("group %d source %d: switch %d forks %d ways before the root",
								id, s, sw, len(splits))
						}
						for _, sp := range splits {
							peer := g.Node(sw).Ports[sp.Port].Peer
							if g.Node(peer).Kind == topology.Host {
								reached[peer]++
								continue
							}
							if down && (ud.Parent(peer) != sw || !ud.InTree(sw, sp.Port)) {
								t.Fatalf("group %d source %d: fork at switch %d sends a branch to %d, not a tree child",
									id, s, sw, peer)
							}
							walk(peer, sp.Header, down)
						}
					}
					sw, _ := g.HostAttachment(s)
					walk(sw, b.sys.headers[id][s], false)
					for _, m := range grp.Members {
						if m != s && reached[m] != 1 {
							t.Fatalf("group %d source %d: member %d reached %d times", id, s, m, reached[m])
						}
					}
					if len(reached) != len(grp.Members)-1 {
						t.Fatalf("group %d source %d: reached %v, members %v", id, s, reached, grp.Members)
					}
				}
			}
		})
	}
}

// TestSwitchMulticastTotalOrder: every member of one group multicasts
// several worms at once, and any two receivers see the worms they both get
// in the same order.  Every worm passes the root's all-or-nothing grant,
// then FIFO tree channels, so the root serializes the group.
func TestSwitchMulticastTotalOrder(t *testing.T) {
	g := topology.Torus(4, 4, 1, 1)
	b := newBed(t, g, network.Config{})
	hosts := g.Hosts()
	members := []topology.NodeID{hosts[1], hosts[4], hosts[6], hosts[9], hosts[11], hosts[14]}
	b.addGroup(t, 1, members)
	for round := 0; round < 4; round++ {
		for i, m := range members {
			m, payload := m, 100+37*i+11*round
			b.k.At(des.Time(1+round*50), func() {
				if err := b.sys.SendMulticast(m, 1, payload); err != nil {
					t.Error(err)
				}
			})
		}
	}
	// A bounded run: a deadlocked fabric ticks forever.
	if err := b.k.Run(200_000); err != nil {
		t.Fatal(err)
	}
	if b.sys.F.Stalled(5_000) {
		t.Fatal("fabric stalled")
	}
	for _, m := range members {
		if got := len(b.byHost[m]); got != 4*(len(members)-1) {
			t.Fatalf("member %d received %d worms, want %d", m, got, 4*(len(members)-1))
		}
	}
	for i, a := range members {
		for _, c := range members[i+1:] {
			pos := map[int64]int{}
			for k, d := range b.byHost[a] {
				pos[d.Worm.ID] = k
			}
			last := -1
			for _, d := range b.byHost[c] {
				k, ok := pos[d.Worm.ID]
				if !ok {
					continue
				}
				if k < last {
					t.Fatalf("hosts %d and %d receive worm %d in different orders", a, c, d.Worm.ID)
				}
				last = k
			}
		}
	}
}

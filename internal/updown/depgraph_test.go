package updown

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"wormlan/internal/topology"
)

// clockwiseRing wires n switches into a ring, one host each, and tables
// the clockwise two-switch-hop route from every host i to host i+2, except
// from the hosts listed in drop.  It returns the switches and each one's
// clockwise port alongside.
func clockwiseRing(t *testing.T, n int, drop ...int) (*topology.Graph, *Table, []topology.NodeID, []topology.PortID) {
	t.Helper()
	g := topology.New()
	sws := make([]topology.NodeID, n)
	for i := range sws {
		sws[i] = g.AddSwitch("")
	}
	cw := make([]topology.PortID, n)
	for i := range sws {
		cw[i], _ = g.Connect(sws[i], sws[(i+1)%n], 1)
	}
	hosts := make([]topology.NodeID, n)
	hostPorts := make([]topology.PortID, n)
	for i := range hosts {
		hosts[i] = g.AddHost("")
		hostPorts[i], _ = g.Connect(sws[i], hosts[i], 1)
	}
	routes := make([][]Route, n)
	for i := range routes {
		routes[i] = make([]Route, n)
		if slices.Contains(drop, i) {
			continue
		}
		j := (i + 2) % n
		routes[i][j] = Route{Src: hosts[i], Dst: hosts[j],
			Ports: []topology.PortID{cw[i], cw[(i+1)%n], hostPorts[j]}}
	}
	return g, customTable(hosts, routes), sws, cw
}

// TestFindCycleDetectsCycle: three clockwise routes on a 3-ring close a
// three-channel cycle; without one of them the graph is a chain.
func TestFindCycleDetectsCycle(t *testing.T) {
	g, tbl, _, _ := clockwiseRing(t, 3)
	if err := tbl.Prove(g, nil); err == nil || !strings.Contains(err.Error(), "cycle of 3 channels") {
		t.Fatalf("Prove = %v, want a 3-channel cycle", err)
	}
	g, tbl, _, _ = clockwiseRing(t, 3, 0)
	if err := tbl.Prove(g, nil); err != nil {
		t.Fatalf("false positive cycle: %v", err)
	}
}

func TestDeadlockFreedomProperty(t *testing.T) {
	// Property: for any random connected topology, the all-pairs up/down
	// table induces an acyclic channel dependency graph.
	err := quick.Check(func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw%14) + 3
		d := int(dRaw%3) + 2
		g := topology.Random(n, d, seed)
		r, err := New(g, topology.None)
		if err != nil {
			return false
		}
		tbl, err := r.NewTable(false)
		if err != nil {
			return false
		}
		for _, src := range tbl.Hosts {
			for _, dst := range tbl.Hosts {
				if src != dst && r.VerifyRoute(tbl.Lookup(src, dst)) != nil {
					return false
				}
			}
		}
		return tbl.Prove(g, nil) == nil
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMinimalRoutesWouldDeadlockOnRing is the negative control:
// unrestricted shortest-path routing on a ring, all clockwise, has a cyclic
// channel dependency — the textbook wormhole deadlock up/down routing
// exists to avoid.  The proof names the ring, channel by channel.
func TestMinimalRoutesWouldDeadlockOnRing(t *testing.T) {
	g, tbl, sws, cw := clockwiseRing(t, 4)
	var want []string
	for i := 0; i <= len(sws); i++ {
		k := i % len(sws)
		want = append(want, fmt.Sprintf("%d/%d/0", sws[k], cw[k]))
	}
	err := tbl.Prove(g, nil)
	if err == nil || !strings.HasSuffix(err.Error(), strings.Join(want, " -> ")) {
		t.Fatalf("Prove = %v, want the clockwise ring %s", err, strings.Join(want, " -> "))
	}
}

// TestProveRowsRejectsClockwiseEscapes is the negative control for a
// switch-sourced table, the kind escape routes take: routes from each
// switch, each running clockwise two switches round ring:5 to a host, close
// the ring, and Prove names it channel by channel.
func TestProveRowsRejectsClockwiseEscapes(t *testing.T) {
	net, err := topology.Named("ring:5", 1)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	sws := g.Switches()
	n := len(sws)
	cw := make([]topology.PortID, n) // each switch's port to the next round
	hostOn := make([]Hop, n)         // each switch's host and its port
	for i, sw := range sws {
		for pi, p := range g.Node(sw).Ports {
			switch {
			case p.Peer == sws[(i+1)%n]:
				cw[i] = topology.PortID(pi)
			case g.Node(p.Peer).Kind == topology.Host:
				hostOn[i] = Hop{Port: topology.PortID(pi), Peer: p.Peer}
			}
		}
	}
	b := NewTableBuilder(sws, g.Hosts())
	var want []string
	for i, sw := range sws {
		next, j := (i+1)%n, (i+2)%n
		for _, h := range g.Hosts() {
			if h == hostOn[j].Peer {
				b.Row = append(b.Row, cw[i], cw[next], hostOn[j].Port)
			}
			b.EndRoute()
		}
		want = append(want, fmt.Sprintf("%d/%d/0", sw, cw[i]))
	}
	want = append(want, want[0])
	err = b.Table().Prove(g, nil)
	if err == nil || !strings.HasSuffix(err.Error(), strings.Join(want, " -> ")) {
		t.Fatalf("Prove = %v, want the clockwise ring %s", err, strings.Join(want, " -> "))
	}
}

// TestProveAllocBudget pins the proof to a constant handful of allocations
// (channel index, successor bitsets, search state), not a number that grows
// with routes, on a host table and on the escape table.
func TestProveAllocBudget(t *testing.T) {
	g := topology.Torus(8, 8, 1, 1)
	r := mustRouting(t, g)
	tbl, err := r.NewTable(false)
	if err != nil {
		t.Fatal(err)
	}
	for name, tbl := range map[string]*Table{"hosts": tbl, "escapes": r.Escapes()} {
		allocs := testing.AllocsPerRun(5, func() {
			if err := tbl.Prove(g, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Fatalf("Prove on torus8x8 %s: %.0f allocs, budget 8", name, allocs)
		}
		t.Logf("Prove on torus8x8 %s: %.0f allocs", name, allocs)
	}
}

func BenchmarkProve(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *topology.Graph
	}{
		{"torus8x8", topology.Torus(8, 8, 1, 1)},
		{"shufflenet24", topology.BidirShufflenet(2, 3, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			r, err := New(c.g, topology.None)
			if err != nil {
				b.Fatal(err)
			}
			tbl, err := r.NewTable(false)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tbl.Prove(c.g, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package updown

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"wormlan/internal/topology"
)

// cables lists every switch-to-switch cable once, by its lower-numbered end.
func cables(g *topology.Graph) []Edge {
	var out []Edge
	for _, sw := range g.Switches() {
		for pi, p := range g.Node(sw).Ports {
			if p.Wired() && g.Node(p.Peer).Kind == topology.Switch && sw < p.Peer {
				out = append(out, Edge{sw, topology.PortID(pi)})
			}
		}
	}
	return out
}

// failureSets returns the named failure scenarios the walk is checked under.
func failureSets(g *topology.Graph) map[string]*Failures {
	sws, cs, hosts := g.Switches(), cables(g), g.Hosts()
	scattered := NewFailures()
	for i := 0; i < len(cs); i += 5 {
		scattered.FailLink(g, cs[i].Node, cs[i].Port)
	}
	deadSwitch := NewFailures()
	deadSwitch.FailSwitch(sws[len(sws)/2])
	deadRoot := NewFailures()
	deadRoot.FailSwitch(sws[0])
	// Cut every cable of the last switch: it and its hosts are stranded.
	partition := NewFailures()
	last := sws[len(sws)-1]
	for pi, p := range g.Node(last).Ports {
		if p.Wired() && g.Node(p.Peer).Kind == topology.Switch {
			partition.FailLink(g, last, topology.PortID(pi))
		}
	}
	hostLink := NewFailures()
	hostLink.FailLink(g, hosts[len(hosts)/3], 0)
	return map[string]*Failures{
		"healthy": nil, "empty": NewFailures(), "scattered": scattered,
		"dead-switch": deadSwitch, "dead-root": deadRoot,
		"partition": partition, "host-link": hostLink,
	}
}

// errText flattens an error for comparison.
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// walked returns the switches Walk leads rt through, hop by hop: nil for a
// route Walk rejects.
func walked(g *topology.Graph, rt Route) []topology.NodeID {
	var sws []topology.NodeID
	if err := rt.Walk(g, nil, func(h Hop) error {
		sws = append(sws, h.Switch)
		return nil
	}); err != nil {
		return nil
	}
	return sws
}

// diffRef describes how a route differs from the reference one — in its
// endpoints and ports, or in the switch chain Walk yields against the one
// the reference search recorded — or returns "" when they agree.
func diffRef(g *topology.Graph, got Route, want refRoute) string {
	if !reflect.DeepEqual(got, want.Route) {
		return fmt.Sprintf("walk %+v, pair BFS %+v", got, want.Route)
	}
	if sws := walked(g, got); !slices.Equal(sws, want.sws) {
		return fmt.Sprintf("walked switches %v, pair BFS %v", sws, want.sws)
	}
	return ""
}

// checkClasses holds every port's class to the reference rules: dead from
// the failure set, up from the levels and node IDs, in the tree by the
// reference spanning tree, whose parent ports ParentPort must equal.
func checkClasses(t *testing.T, r *Routing) {
	t.Helper()
	g := r.G
	parents := r.refParents()
	if !slices.Equal(r.ParentPort, parents) {
		t.Fatalf("ParentPort %v, reference spanning tree %v", r.ParentPort, parents)
	}
	for n := range g.Nodes {
		for pi, p := range g.Nodes[n].Ports {
			node, port := topology.NodeID(n), topology.PortID(pi)
			var want portClass
			if p.Wired() {
				fabric := g.Nodes[n].Kind == topology.Switch && g.Node(p.Peer).Kind == topology.Switch
				dead := r.fail.LinkDead(g, node, port)
				if dead {
					want |= portDead
				}
				if fabric && !dead {
					want |= portHop
				}
				if fabric && r.refUp(node, port) {
					want |= portUp
				}
				if r.refInTree(parents, node, port) {
					want |= portTree
				}
			}
			if got := r.classOf(node, port); got != want {
				t.Fatalf("port %d of node %d: class %04b, reference %04b", pi, n, got, want)
			}
		}
	}
}

// checkWalkAgainstPairBFS compares everything the walk builds under r with
// the per-pair reference, pair by pair: the port classes, both table
// flavours, both treeOnly settings, the single-pair entry point, and the
// switch-sourced escape table.
func checkWalkAgainstPairBFS(t *testing.T, r *Routing) {
	t.Helper()
	checkClasses(t, r)
	g := r.G
	hosts := g.Hosts()
	for _, treeOnly := range []bool{false, true} {
		want, _ := r.pairTable(treeOnly, false)
		tbl, err := r.NewTableSurviving(treeOnly)
		if err != nil {
			t.Fatalf("treeOnly=%v: NewTableSurviving: %v", treeOnly, err)
		}
		for i, src := range hosts {
			for j, dst := range hosts {
				if d := diffRef(g, tbl.Lookup(src, dst), want[i][j]); d != "" {
					t.Fatalf("treeOnly=%v %d->%d: %s", treeOnly, src, dst, d)
				}
				if has := tbl.HasRoute(src, dst); has != (len(want[i][j].Ports) > 0) {
					t.Fatalf("treeOnly=%v %d->%d: HasRoute=%v, reference route %+v", treeOnly, src, dst, has, want[i][j])
				}
				if (i+j)%4 != 0 {
					continue // the one-shot entry points: a quarter of the pairs
				}
				one, oneErr := r.route(src, dst, treeOnly)
				ref, refErr := r.pairRoute(src, dst, treeOnly)
				if d := diffRef(g, one, ref); d != "" || errText(oneErr) != errText(refErr) {
					t.Fatalf("treeOnly=%v %d->%d: one-shot error %v, pair BFS error %v; %s",
						treeOnly, src, dst, oneErr, refErr, d)
				}
			}
		}
		wantStrict, wantErr := r.pairTable(treeOnly, true)
		strict, err := r.NewTable(treeOnly)
		if errText(err) != errText(wantErr) {
			t.Fatalf("treeOnly=%v: NewTable error %q, reference %q", treeOnly, errText(err), errText(wantErr))
		}
		if err != nil {
			continue
		}
		for i, src := range hosts {
			for j, dst := range hosts {
				if d := diffRef(g, strict.Lookup(src, dst), wantStrict[i][j]); d != "" {
					t.Fatalf("treeOnly=%v strict %d->%d: %s", treeOnly, src, dst, d)
				}
			}
		}
	}
	// Escapes: a row per switch holding, for every host attached elsewhere,
	// exactly the reference switch-sourced route, each one a legal walk.
	esc, sws := r.Escapes(), g.Switches()
	if !slices.Equal(esc.Srcs, sws) || !slices.Equal(esc.Hosts, hosts) {
		t.Fatalf("Escapes: table from %v to %v, want switches %v to hosts %v", esc.Srcs, esc.Hosts, sws, hosts)
	}
	for _, sw := range sws {
		for _, h := range hosts {
			rt := esc.Lookup(sw, h)
			ok := esc.HasRoute(sw, h)
			if ok != (len(rt.Ports) > 0) {
				t.Fatalf("escape %d->%d: HasRoute=%v, Lookup %+v", sw, h, ok, rt)
			}
			if at, _ := g.HostAttachment(h); at == sw {
				if ok {
					t.Fatalf("escape %d->%d: the attach switch delivers, got %+v", sw, h, rt)
				}
				continue
			}
			ref, refErr := r.pairEscape(sw, h)
			if ok != (refErr == nil) {
				t.Fatalf("escape %d->%d: Escapes (%+v, %v), pair BFS (%+v, %v)", sw, h, rt, ok, ref, refErr)
			}
			if !ok {
				continue
			}
			if d := diffRef(g, rt, ref); d != "" {
				t.Fatalf("escape %d->%d: %s", sw, h, d)
			}
			if err := r.VerifyRoute(rt); err != nil {
				t.Fatalf("escape %d->%d: %v", sw, h, err)
			}
		}
	}
}

func TestWalkMatchesPairBFS(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"torus8x8":        topology.Torus(8, 8, 1, 1),
		"torus8x8-2hosts": topology.Torus(8, 8, 2, 1),
		"shufflenet24":    topology.BidirShufflenet(2, 3, 1),
		"clos":            topology.Clos(6, 3, 2, 1),
		"fullmesh":        topology.FullMesh(6, 2, 1),
		"myrinet4":        topology.Myrinet4(),
		"fattree":         topology.FatTreeish(4, 2, true),
		"random-12":       topology.Random(12, 3, 42),
		"random-30":       topology.Random(30, 4, 1996),
	}
	for name, g := range graphs {
		for fname, fail := range failureSets(g) {
			if testing.Short() && name == "torus8x8-2hosts" && fname != "healthy" && fname != "partition" {
				continue // 16 256 reference searches per table flavour
			}
			t.Run(name+"/"+fname, func(t *testing.T) {
				r, err := WithoutEdges(g, topology.None, fail)
				if err != nil {
					t.Fatal(err)
				}
				checkWalkAgainstPairBFS(t, r)
			})
		}
	}
}

// fuzzGraph decodes a byte tape into a connected switch graph with hosts
// numbered round-robin (so hosts sharing a switch are NOT adjacent, unlike
// every builder) and a failure set.  It returns nil when the tape is too
// short to describe one.
func fuzzGraph(tape []byte) (*topology.Graph, *Failures) {
	if len(tape) < 3 {
		return nil, nil
	}
	next := func() int {
		if len(tape) == 0 {
			return 0
		}
		b := tape[0]
		tape = tape[1:]
		return int(b)
	}
	n := 2 + next()%9
	g := topology.New()
	sws := make([]topology.NodeID, n)
	for i := range sws {
		sws[i] = g.AddSwitch(fmt.Sprintf("s%d", i))
	}
	for i := 1; i < n; i++ {
		g.Connect(sws[next()%i], sws[i], 1) // spanning tree: connected
	}
	for extra := next() % (2 * n); extra > 0; extra-- {
		if a, b := next()%n, next()%n; a != b {
			g.Connect(sws[a], sws[b], 1) // parallel cables allowed
		}
	}
	for round := 1 + next()%2; round > 0; round-- {
		for i := range sws {
			g.Connect(sws[i], g.AddHost(""), 1)
		}
	}
	fail := NewFailures()
	cs, hosts := cables(g), g.Hosts()
	for len(tape) > 0 {
		switch b := next(); b % 4 {
		case 0, 1:
			c := cs[b/4%len(cs)]
			fail.FailLink(g, c.Node, c.Port)
		case 2:
			fail.FailSwitch(sws[b/4%n])
		case 3:
			fail.FailLink(g, hosts[b/4%len(hosts)], 0)
		}
	}
	return g, fail
}

func FuzzWalkVsPairBFS(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 1, 2, 3, 1})
	f.Add([]byte{8, 0, 0, 1, 2, 2, 4, 5, 6, 1, 7, 3, 6, 2, 0, 5, 0, 4, 8})
	f.Add([]byte{6, 0, 1, 1, 0, 3, 9, 0, 4, 1, 5, 2, 3, 0, 1, 0, 2, 6, 10, 3, 7})
	f.Add([]byte{3, 0, 0, 2, 1, 2, 2, 1, 0, 14, 6})
	f.Fuzz(func(t *testing.T, tape []byte) {
		g, fail := fuzzGraph(tape)
		if g == nil {
			return
		}
		r, err := WithoutEdges(g, topology.None, fail)
		if err != nil {
			return // every switch dead: nothing to route
		}
		checkWalkAgainstPairBFS(t, r)
		// The surviving table is the kind a remap installs: it must prove.
		tbl, err := r.NewTableSurviving(false)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Prove(g, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNewTableAllocBudget pins table construction to a handful of
// allocations per table — walk scratch, one exactly sized row per source,
// the offsets — not five-plus per ordered host pair, and its bytes to the
// route bytes plus offsets: well under a Route header per pair.
func TestNewTableAllocBudget(t *testing.T) {
	g := topology.Torus(8, 8, 1, 1)
	r := mustRouting(t, g)
	build := func() {
		if _, err := r.NewTable(false); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, build)
	if budget := float64(4 * len(g.Hosts())); allocs > budget {
		t.Fatalf("NewTable on torus8x8: %.0f allocs, budget %.0f", allocs, budget)
	}
	const runs, budget = 5, 256 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if bytes > budget {
		t.Fatalf("NewTable on torus8x8: %d B, budget %d B", bytes, budget)
	}
	t.Logf("NewTable on torus8x8: %.0f allocs, %d B", allocs, bytes)
}

// TestTableLookupZeroAlloc: reading a table — Lookup and HasRoute over
// every pair, routed or not, and off-table nodes — allocates nothing, for a
// host table and for the switch-sourced escape table alike.
func TestTableLookupZeroAlloc(t *testing.T) {
	g := topology.Torus(8, 8, 1, 1)
	fail := NewFailures()
	fail.FailSwitch(g.Switches()[5])
	r, err := WithoutEdges(g, topology.None, fail)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := r.NewTableSurviving(false)
	if err != nil {
		t.Fatal(err)
	}
	nodes := append(slices.Concat(g.Switches(), g.Hosts()), topology.None, topology.NodeID(len(g.Nodes)+7))
	for name, tbl := range map[string]*Table{"hosts": tbl, "escapes": r.Escapes()} {
		hops := 0
		allocs := testing.AllocsPerRun(5, func() {
			hops = 0
			for _, src := range nodes {
				for _, dst := range nodes {
					if tbl.HasRoute(src, dst) {
						hops += tbl.Lookup(src, dst).Hops()
					}
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Lookup/HasRoute over all pairs: %.0f allocs, want 0", name, allocs)
		}
		if hops != tbl.Hops() {
			t.Fatalf("%s: read %d hops, the table holds %d", name, hops, tbl.Hops())
		}
	}
}

func TestTableIndexOutOfRange(t *testing.T) {
	g := topology.Myrinet4()
	hosts := g.Hosts()
	routes := make([][]Route, len(hosts))
	for i := range routes {
		routes[i] = make([]Route, len(hosts))
	}
	routes[0][1] = Route{Src: hosts[0], Dst: hosts[1], Ports: []topology.PortID{2}}
	tbl := customTable(hosts, routes)
	if !tbl.HasRoute(hosts[0], hosts[1]) || tbl.HasRoute(hosts[1], hosts[0]) {
		t.Fatal("HasRoute disagrees with the routes handed in")
	}
	sw := g.Switches()[0]
	for _, n := range []topology.NodeID{sw, topology.None, topology.NodeID(len(g.Nodes) + 7)} {
		if tbl.HasRoute(n, hosts[1]) || tbl.HasRoute(hosts[0], n) {
			t.Fatalf("HasRoute true for non-host %d", n)
		}
		if rt := tbl.Lookup(n, hosts[1]); len(rt.Ports) != 0 {
			t.Fatalf("Lookup(%d, host) = %+v, want the zero Route", n, rt)
		}
	}
}

// customTable files routes (square over hosts, routes[i][j] from hosts[i]
// to hosts[j]) through a TableBuilder.
func customTable(hosts []topology.NodeID, routes [][]Route) *Table {
	b := NewTableBuilder(hosts, hosts)
	for i := range hosts {
		for j := range hosts {
			b.Row = append(b.Row, routes[i][j].Ports...)
			b.EndRoute()
		}
	}
	return b.Table()
}

func BenchmarkNewTable(b *testing.B) {
	failed := NewFailures()
	g := topology.Torus(8, 8, 1, 1)
	for i, c := range cables(g) {
		if i%16 == 0 {
			failed.FailLink(g, c.Node, c.Port)
		}
	}
	cases := []struct {
		name string
		g    *topology.Graph
		fail *Failures
	}{
		{"torus8x8", g, nil},
		{"torus8x8-2hosts", topology.Torus(8, 8, 2, 1), nil},
		{"shufflenet24", topology.BidirShufflenet(2, 3, 1), nil},
		{"torus8x8-failed", g, failed},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			r, err := WithoutEdges(c.g, topology.None, c.fail)
			if err != nil {
				b.Fatal(err)
			}
			n := len(c.g.Hosts())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchTable, err = r.NewTable(false); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*(n-1)), "ns/route")
		})
	}
}

// benchTable keeps BenchmarkNewTable's result live.
var benchTable *Table

// remapFailures kills one cable and one switch of g, neither of them the
// root: the failure set of a typical remap.
func remapFailures(g *topology.Graph) *Failures {
	fail := NewFailures()
	cs, sws := cables(g), g.Switches()
	fail.FailLink(g, cs[len(cs)/3].Node, cs[len(cs)/3].Port)
	fail.FailSwitch(sws[len(sws)/2])
	return fail
}

// BenchmarkRemap is the routing side of one remap with a dead cable and a
// dead switch: the labelling of the survivors, then either the surviving
// host table or (escapes) adaptive routing's escape table, then its proof.
func BenchmarkRemap(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *topology.Graph
	}{
		{"torus8x8", topology.Torus(8, 8, 1, 1)},
		{"shufflenet24", topology.BidirShufflenet(2, 3, 1)},
	} {
		fail := remapFailures(c.g)
		for _, escapes := range []bool{false, true} {
			name := c.name
			if escapes {
				name += "/escapes"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r, err := WithoutEdges(c.g, topology.None, fail)
					if err != nil {
						b.Fatal(err)
					}
					var tbl *Table
					if escapes {
						tbl = r.Escapes()
					} else if tbl, err = r.NewTableSurviving(false); err != nil {
						b.Fatal(err)
					}
					if err := tbl.Prove(c.g, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

package vcroute

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// pinnedNets are the topology.Named fabrics every scheme is tried on; a
// scheme is pinned on each one its Check and Build accept.
var pinnedNets = []string{
	"torus8x8", "torus4x4", "shufflenet24", "shufflenet64", "clos8x4",
	"fullmesh8x4", "fullmesh8x8", "myrinet4", "star:4", "line:4", "ring:5",
}

// pinnedFailures is the fixed failure set of the pin: the first
// switch-to-switch cable of the first switch (its first cable when it has
// no switch neighbour) and, when there is more than one switch, the last
// switch.
func pinnedFailures(g *topology.Graph) *updown.Failures {
	fail := updown.NewFailures()
	sws := g.Switches()
	cable := topology.PortID(0)
	for pi, p := range g.Node(sws[0]).Ports {
		if p.Wired() && g.Node(p.Peer).Kind == topology.Switch {
			cable = topology.PortID(pi)
			break
		}
	}
	fail.FailLink(g, sws[0], cable)
	if len(sws) > 1 {
		fail.FailSwitch(sws[len(sws)-1])
	}
	return fail
}

// tableHash hashes every route byte of tbl and the switches Walk leads the
// route through (decode reading its bytes), row-major over its hosts,
// empty routes included.
func tableHash(g *topology.Graph, tbl *updown.Table, decode func(topology.PortID) (topology.PortID, int)) string {
	h := sha256.New()
	for _, src := range tbl.Hosts {
		for _, dst := range tbl.Hosts {
			rt := tbl.Lookup(src, dst)
			fmt.Fprintf(h, "%d>%d:%v%v;", src, dst, rt.Ports, walkedSwitches(g, rt, decode))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// walkedSwitches returns the switch each hop of rt leaves, as Walk finds
// them — for the one-byte adaptive marker, whose hops the switches decide,
// the source's attach switch — and nil for an empty route.
func walkedSwitches(g *topology.Graph, rt updown.Route, decode func(topology.PortID) (topology.PortID, int)) []topology.NodeID {
	if len(rt.Ports) == 1 && rt.Ports[0] == route.AdaptivePort {
		sw, _ := g.HostAttachment(rt.Src)
		return []topology.NodeID{sw}
	}
	var sws []topology.NodeID
	if err := rt.Walk(g, decode, func(h updown.Hop) error {
		sws = append(sws, h.Switch)
		return nil
	}); err != nil {
		return nil
	}
	return sws
}

// TestSchemeTablesPinned holds every registered scheme's table to
// testdata/tables_pinned.json, byte for byte, on each named fabric the
// scheme accepts — healthy and under pinnedFailures — and proves each one
// deadlock-free at the scheme's lane floor, together with the escape table
// of every labelling an adaptive table is pinned on.  Up/down pins the
// tables its labelling builds itself (NewTable healthy, NewTableSurviving
// after a failure, as the recovery pipeline does).  A refactor of the
// table layer must not change the file; on a deliberate routing change,
// replace it with the JSON this test prints.
func TestSchemeTablesPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/tables_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, name := range Names() {
		sch, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range pinnedNets {
			net, err := topology.Named(topo, 0)
			if err != nil {
				t.Fatal(err)
			}
			if sch.Check(net) != nil {
				continue
			}
			healthy, err := updown.New(net.Graph, topology.None)
			if err != nil {
				t.Fatal(err)
			}
			failed, err := updown.WithoutEdges(net.Graph, topology.None, pinnedFailures(net.Graph))
			if err != nil {
				t.Fatal(err)
			}
			for _, ud := range []*updown.Routing{healthy, failed} {
				var tbl *updown.Table
				switch {
				case sch.Build != nil:
					tbl, err = sch.Build(net, max(sch.MinLanes, 1), ud)
				case ud == healthy:
					tbl, err = ud.NewTable(false)
				default:
					tbl, err = ud.NewTableSurviving(false)
				}
				if err != nil {
					if ud == healthy {
						break // the scheme does not route this fabric
					}
					t.Fatalf("%s on %s: healthy table built, failed one did not: %v", name, topo, err)
				}
				key := fmt.Sprintf("%s/%s/healthy", name, topo)
				if ud == failed {
					key = fmt.Sprintf("%s/%s/failed", name, topo)
				}
				got[key] = tableHash(net.Graph, tbl, Decoder(sch.VCEncoded))
				if err := tbl.Prove(net.Graph, Decoder(sch.VCEncoded)); err != nil {
					t.Errorf("%s: %v", key, err)
				}
				if sch.Adaptive { // the fabric routes by the escapes, not the markers
					if err := ud.Escapes().Prove(net.Graph, nil); err != nil {
						t.Errorf("%s escapes: %v", key, err)
					}
				}
				if got[key] != want[key] {
					t.Errorf("%s: table hash %s, pinned %s", key, got[key], want[key])
				}
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("pinned file has %d tables, the test builds %d", len(want), len(got))
	}
	if t.Failed() {
		js, _ := json.MarshalIndent(got, "", " ")
		t.Logf("regenerated testdata/tables_pinned.json:\n%s", js)
	}
}

// BenchmarkSchemeTables builds each registered scheme's healthy table on
// the first fabric of pinnedNets it routes (up/down: NewTable), reporting
// time and allocation per table.
func BenchmarkSchemeTables(b *testing.B) {
	for _, name := range Names() {
		sch, err := Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		build := func(net topology.Net, ud *updown.Routing) (*updown.Table, error) {
			if sch.Build == nil {
				return ud.NewTable(false)
			}
			return sch.Build(net, max(sch.MinLanes, 1), ud)
		}
		for _, topo := range pinnedNets {
			net, err := topology.Named(topo, 0)
			if err != nil {
				b.Fatal(err)
			}
			if sch.Check(net) != nil {
				continue
			}
			ud, err := updown.New(net.Graph, topology.None)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := build(net, ud); err != nil {
				continue // the scheme does not route this fabric
			}
			b.Run(name+"/"+topo, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := build(net, ud); err != nil {
						b.Fatal(err)
					}
				}
			})
			break
		}
	}
}

package vcroute

import (
	"reflect"
	"strings"
	"testing"

	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// TestSchemeRegistry holds every registered scheme to the contract its
// callers rely on, on the fabric the routing comparison runs it on: Build
// equals the direct builder call it stands for, healthy and under a
// failure set; fresh tables validate complete; and building below the lane
// floor or without the geometry is an error, never a bad table.
func TestSchemeRegistry(t *testing.T) {
	direct := map[string]struct {
		topo  string
		build func(n topology.Net, nvc int, ud *updown.Routing) (*updown.Table, error)
	}{
		"updown": {"torus8x8", nil},
		"vcmin": {"torus8x8", func(n topology.Net, nvc int, ud *updown.Routing) (*updown.Table, error) {
			if ud.Failures() == nil {
				return TorusMinimal(n.Graph, n.Torus, nvc)
			}
			return TorusMinimalSurviving(n.Graph, n.Torus, nvc, ud.Failures())
		}},
		"adaptive": {"torus8x8", func(n topology.Net, _ int, ud *updown.Routing) (*updown.Table, error) {
			return Adaptive(n.Graph, ud)
		}},
		"fullmesh": {"fullmesh8x4", func(n topology.Net, _ int, ud *updown.Routing) (*updown.Table, error) {
			if ud.Failures() == nil {
				return FullMesh(n.Graph)
			}
			return FullMeshSurviving(n.Graph, ud.Failures())
		}},
		"clos": {"clos8x4", func(n topology.Net, _ int, ud *updown.Routing) (*updown.Table, error) {
			return Clos(n.Graph, n.Clos, ud.Failures())
		}},
		"shufflenet": {"shufflenet64", func(n topology.Net, nvc int, ud *updown.Routing) (*updown.Table, error) {
			return Shufflenet(n.Graph, n.Shuffle, nvc, ud.Failures())
		}},
	}
	if len(direct) != len(Names()) {
		t.Fatalf("test covers %d schemes, registry has %v", len(direct), Names())
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			sch, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			d, ok := direct[name]
			if !ok {
				t.Fatalf("no direct builder for registered scheme %q", name)
			}
			if (sch.Build == nil) != (d.build == nil) {
				t.Fatalf("Build nil = %v, want %v (only up/down reuses the labelling's own table)", sch.Build == nil, d.build == nil)
			}
			if sch.VCEncoded != (sch.MinLanes > 0) {
				t.Fatalf("VCEncoded %v with lane floor %d: lane-encoded routes and a lane floor go together", sch.VCEncoded, sch.MinLanes)
			}
			net, err := topology.Named(d.topo, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := sch.Check(net); err != nil {
				t.Fatalf("canonical fabric %s rejected: %v", d.topo, err)
			}
			if sch.Build == nil {
				return
			}
			healthy, err := updown.New(net.Graph, topology.None)
			if err != nil {
				t.Fatal(err)
			}
			fail := updown.NewFailures()
			fail.FailLink(net.Graph, net.Graph.Switches()[0], 0)
			failed, err := updown.WithoutEdges(net.Graph, topology.None, fail)
			if err != nil {
				t.Fatal(err)
			}
			nvc := max(sch.MinLanes, 1)
			for _, ud := range []*updown.Routing{healthy, failed} {
				got, err := sch.Build(net, nvc, ud)
				if err != nil {
					t.Fatal(err)
				}
				want, err := d.build(net, nvc, ud)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Build differs from the direct builder (failures: %v)", ud.Failures() != nil)
				}
				if err := ValidateTable(net.Graph, got, sch.VCEncoded, ud == healthy); err != nil {
					t.Fatal(err)
				}
			}
			if sch.MinLanes > 0 {
				if _, err := sch.Build(net, sch.MinLanes-1, healthy); err == nil {
					t.Fatalf("built with %d lanes, below the floor of %d", sch.MinLanes-1, sch.MinLanes)
				}
			}
			bare := topology.Net{Graph: net.Graph}
			if needsGeom := sch.Check(bare) != nil; needsGeom {
				if _, err := sch.Build(bare, nvc, healthy); err == nil {
					t.Fatal("built without the geometry Check demands")
				}
			} else if _, err := sch.Build(bare, nvc, healthy); err != nil {
				t.Fatalf("Check passed a bare graph that Build rejects: %v", err)
			}
		})
	}
}

// TestLookupErrors: "" is up/down; an unknown name lists the legal set,
// sorted; each geometry error names the geometry and its builder.
func TestLookupErrors(t *testing.T) {
	if sch, err := Lookup(""); err != nil || sch.Name != "updown" || !sch.SwitchMC {
		t.Fatalf(`Lookup("") = %+v, %v, want updown`, sch, err)
	}
	_, err := Lookup("left-hand")
	const legal = "adaptive, clos, fullmesh, shufflenet, updown, vcmin"
	if err == nil || !strings.Contains(err.Error(), "unknown route scheme") || !strings.Contains(err.Error(), legal) {
		t.Fatalf("unknown-route error %v does not list %q", err, legal)
	}
	bare := topology.Net{Graph: topology.Star(2)}
	for name, want := range map[string]string{
		"vcmin":      "torus geometry (build the Graph with topology.TorusWithGeom)",
		"clos":       "leaf-spine geometry (build the Graph with topology.ClosWithGeom)",
		"shufflenet": "shufflenet geometry (build the Graph with topology.BidirShufflenetWithGeom)",
	} {
		sch, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sch.Check(bare); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s on a bare graph: %v, want mention of %q", name, err, want)
		}
	}
}

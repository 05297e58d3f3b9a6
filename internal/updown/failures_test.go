package updown

import (
	"testing"

	"wormlan/internal/topology"
)

// TestWithoutEdgesStrandsPartitionedSwitch cuts both cables of one ring
// switch: the switch is live but cut off from the root, so the labelling
// itself must count it as dead — in its own failure set, never the caller's
// — and no route may lead to or from its host.
func TestWithoutEdgesStrandsPartitionedSwitch(t *testing.T) {
	g := topology.Ring(4, 1)
	sws := g.Switches()
	cut := sws[2]
	fail := NewFailures()
	for pi, p := range g.Node(cut).Ports {
		if p.Wired() && g.Node(p.Peer).Kind == topology.Switch {
			fail.FailLink(g, cut, topology.PortID(pi))
		}
	}
	r, err := WithoutEdges(g, topology.None, fail)
	if err != nil {
		t.Fatal(err)
	}
	if r.Root != sws[0] {
		t.Fatalf("root %d, want lowest live switch %d", r.Root, sws[0])
	}
	if !r.Failures().SwitchDead(cut) || r.Level[cut] != -1 {
		t.Fatalf("stranded switch %d: dead in routing %v, level %d", cut, r.Failures().SwitchDead(cut), r.Level[cut])
	}
	if len(fail.Switches) != 0 || len(fail.Links) != 4 {
		t.Fatalf("caller's set modified: %d switches, %d link sides", len(fail.Switches), len(fail.Links))
	}
	fail.FailSwitch(sws[1])
	if r.Failures().SwitchDead(sws[1]) {
		t.Fatal("routing aliases the caller's failure set")
	}

	tbl, err := r.NewTableSurviving(false)
	if err != nil {
		t.Fatal(err)
	}
	stranded := 0
	for _, h := range g.Hosts() {
		if sw, _ := g.HostAttachment(h); sw != cut {
			if !r.Reachable(h) {
				t.Fatalf("host %d behind live switch %d unreachable", h, sw)
			}
			continue
		}
		stranded++
		if r.Reachable(h) {
			t.Fatalf("host %d behind stranded switch %d reachable", h, cut)
		}
		for _, o := range g.Hosts() {
			if o != h && (tbl.HasRoute(o, h) || tbl.HasRoute(h, o)) {
				t.Fatalf("route between %d and stranded host %d", o, h)
			}
		}
	}
	if stranded == 0 {
		t.Fatal("no host behind the stranded switch")
	}
}

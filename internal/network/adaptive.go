package network

// Duato-style adaptive routing support.
//
// An adaptive fabric routes unicast worms whose header is the single
// route.AdaptivePort marker byte.  At every switch the marker is consumed
// and re-decided locally:
//
//   - destination attached here: deliver on the host port (lane 0);
//   - otherwise, if an adaptive lane (vc >= 1) of a minimal productive port
//     is free, alive, and unstopped right now, take it and re-stamp the
//     marker on the exiting copy;
//   - otherwise fall back to the escape path: the up*/down* route from
//     this switch to the destination (updown.Routing.Escapes), stamped as
//     plain lane-0 port bytes, which downstream switches consume like any
//     explicit source route.  The escape bytes are the labelling's escape
//     table read in place, one slab for all of them.
//
// Deadlock freedom is Duato's argument specialized to this fabric: adaptive
// lanes are acquired only when immediately free, so no worm ever *waits* on
// one — a blocked head waits either on the escape output (lane 0) or on a
// host port.  Lane-0 switch-to-switch channels carry only escape traffic,
// and the escape table passes Table.Prove (sim.Stack.Reroute proves it at
// every remap, vcroute's pinned-table test on every named fabric); host
// ports always drain.  Hence no cycle, with no restriction on how far a
// worm wandered adaptively before bailing out.
//
// The decision is re-evaluated every tick while the head waits, so a worm
// blocked toward its escape route still grabs an adaptive lane the moment
// one frees up.
//
// AdaptiveTable is rebuilt from the surviving topology on every remap
// (fault recovery) and installed with Fabric.SetAdaptive; candidate ports
// additionally check link liveness at selection time, so a kill is routed
// around immediately, before the mapper has even noticed.

import (
	"fmt"

	"wormlan/internal/des"
	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// adaptiveMarker is the one-byte header stamped on adaptively forwarded
// copies.  Shared and never mutated, so re-stamping allocates nothing.
var adaptiveMarker = []byte{route.AdaptivePort}

// AdaptiveTable holds the per-(switch, destination-host) routing state of
// an adaptive fabric: minimal productive ports and the escape route.  All
// lookups are dense-slice indexing — the switch hot path touches no maps.
type AdaptiveTable struct {
	nh       int
	hostIdx  []int32           // NodeID -> host index, -1 for non-hosts
	attach   []topology.NodeID // host index -> attachment switch
	hostPort []topology.PortID // host index -> host port on that switch

	// cands[sw*nh+hi] lists the productive switch ports at sw toward host
	// hi: wired, live at build time, one hop closer by BFS distance over
	// the surviving switch graph.  Ascending port order for determinism.
	cands [][]topology.PortID
	// escape[sw*nh+hi] is the Escapes route from sw to host hi as plain
	// port bytes (ending with the host port); nil when unreachable.
	escape [][]byte
}

// NewAdaptiveTable computes adaptive routing state over the component of g
// that ud routes (its failure set, if any, is honoured: dead links and
// switches contribute neither candidates nor escape routes).
func NewAdaptiveTable(g *topology.Graph, ud *updown.Routing) (*AdaptiveTable, error) {
	hosts := g.Hosts()
	fail := ud.Failures()
	t := &AdaptiveTable{
		nh:       len(hosts),
		hostIdx:  make([]int32, len(g.Nodes)),
		attach:   make([]topology.NodeID, len(hosts)),
		hostPort: make([]topology.PortID, len(hosts)),
		cands:    make([][]topology.PortID, len(g.Nodes)*len(hosts)),
		escape:   make([][]byte, len(g.Nodes)*len(hosts)),
	}
	for i := range t.hostIdx {
		t.hostIdx[i] = -1
	}
	for hi, h := range hosts {
		t.hostIdx[h] = int32(hi)
		sw, swPort := g.HostAttachment(h)
		if sw == topology.None {
			return nil, fmt.Errorf("network: host %d has no attachment switch", h)
		}
		t.attach[hi] = sw
		t.hostPort[hi] = swPort
	}
	// Candidates are carved from one slab.  A cable is distance-decreasing
	// in at most one direction, so a host has at most one candidate per
	// live switch-to-switch cable: sized so, the slab never moves (on a
	// bipartite fabric such as an even torus it is exact).
	reachable, wires := 0, 0
	for _, h := range hosts {
		if ud.Reachable(h) {
			reachable++
		}
	}
	for i := range g.Nodes {
		sw := topology.NodeID(i)
		if g.Nodes[i].Kind != topology.Switch || fail.SwitchDead(sw) {
			continue
		}
		for pi, p := range g.Nodes[i].Ports {
			if p.Wired() && g.Node(p.Peer).Kind == topology.Switch && !fail.LinkDead(g, sw, topology.PortID(pi)) {
				wires++ // each cable twice, once from each end
			}
		}
	}
	candSlab := make([]topology.PortID, 0, reachable*(wires+1)/2)
	var row topology.HopRow
	for hi, h := range hosts {
		if !ud.Reachable(h) {
			continue // no candidates, no escapes: senders drop or prune
		}
		row.Live(g, t.attach[hi], fail)
		dist := row.Dist
		for sw := range g.Nodes {
			if dist[sw] <= 0 {
				continue // hosts; the attach switch delivers; cut-off switches drop
			}
			start := len(candSlab)
			for pi, p := range g.Nodes[sw].Ports {
				if p.Wired() && dist[p.Peer] == dist[sw]-1 &&
					!fail.LinkDead(g, topology.NodeID(sw), topology.PortID(pi)) {
					candSlab = append(candSlab, topology.PortID(pi))
				}
			}
			if len(candSlab) > start {
				t.cands[sw*t.nh+hi] = candSlab[start:len(candSlab):len(candSlab)]
			}
		}
	}
	// Escapes: the labelling's own escape table, the routes its proof
	// reads, encoded in place into one exactly sized slab.
	esc := ud.Escapes()
	escSlab := make([]byte, 0, esc.Hops())
	for _, sw := range esc.Srcs {
		for hi, h := range hosts {
			rt := esc.Lookup(sw, h)
			if len(rt.Ports) == 0 {
				continue // unreachable, or the attach switch delivers
			}
			for _, p := range rt.Ports {
				if int(p) > route.MaxVCPort {
					// Escape bytes ride a VC-headered fabric as plain lane-0
					// bytes, so they must stay below the vc<<6 encoding space.
					return nil, fmt.Errorf("network: escape route %d->%d uses port %d > %d",
						rt.Src, rt.Dst, p, route.MaxVCPort)
				}
			}
			start := len(escSlab)
			var err error
			if escSlab, err = route.AppendUnicast(escSlab, rt.Ports); err != nil {
				return nil, fmt.Errorf("network: escape route %d->%d: %w", rt.Src, rt.Dst, err)
			}
			t.escape[int(sw)*t.nh+hi] = escSlab[start:len(escSlab):len(escSlab)]
		}
	}
	return t, nil
}

// hostIndexOf returns the dense host index of n, or -1.
func (t *AdaptiveTable) hostIndexOf(n topology.NodeID) int {
	if int(n) >= len(t.hostIdx) {
		return -1
	}
	return int(t.hostIdx[n])
}

// SetAdaptive installs (or replaces, after a remap) the adaptive routing
// table.  The fabric then interprets route.AdaptivePort header bytes as the
// route-anywhere marker; worms already in flight keep working, since the
// marker's meaning is positional, not table-versioned.  VCHeaders fabrics
// with NumVCs >= 2 are required: lane 0 is the escape lane and lanes >= 1
// the adaptive ones.
func (f *Fabric) SetAdaptive(t *AdaptiveTable) error {
	if t != nil && (f.nvc < 2 || !f.Cfg.VCHeaders) {
		return fmt.Errorf("network: adaptive routing needs VCHeaders and NumVCs >= 2 (have VCHeaders=%v NumVCs=%d)",
			f.Cfg.VCHeaders, f.nvc)
	}
	f.adaptive = t
	return nil
}

// InstallAdaptive computes the adaptive table for labelling ud over the
// fabric's graph and installs it: the one call an adaptive scheme makes at
// build time and again after every remap.
func (f *Fabric) InstallAdaptive(ud *updown.Routing) error {
	t, err := NewAdaptiveTable(f.G, ud)
	if err != nil {
		return err
	}
	return f.SetAdaptive(t)
}

// adaptiveSelect makes (or re-makes) the per-hop routing decision for a
// pmWait head holding the adaptive marker, then attempts the grant.  Runs
// every tick until the head binds or drops, so the choice always reflects
// current lane occupancy and liveness.
func (s *swState) adaptiveSelect(in *inPort, now des.Time) {
	t := s.f.adaptive
	hi := t.hostIndexOf(in.worm.Dst)
	if hi < 0 {
		s.adaptiveDrop(in)
		return
	}
	nvc := s.f.nvc
	if t.attach[hi] == s.node {
		// Destination attached here: deliver on the host port's lane 0.
		// Waiting on a busy host port is safe — host channels always drain.
		in.reqOuts = append(in.reqOuts[:0], int(t.hostPort[hi])*nvc)
		in.reqStamps = append(in.reqStamps[:0], nil)
		s.tryGrant(in, now)
		return
	}
	slot := int(s.node)*t.nh + hi
	// Adaptive lanes: any vc >= 1 of a minimal productive port, taken only
	// when immediately usable, so nothing ever waits on an adaptive lane.
	for _, p := range t.cands[slot] {
		base := int(p) * nvc
		o := &s.out[base]
		if o.link.dead {
			continue
		}
		for v := 1; v < nvc; v++ {
			ov := &s.out[base+v]
			if ov.boundIn < 0 && !ov.link.stopped(uint8(v)) {
				in.reqOuts = append(in.reqOuts[:0], base+v)
				in.reqStamps = append(in.reqStamps[:0], adaptiveMarker)
				s.tryGrant(in, now)
				return
			}
		}
	}
	// Escape: the deadlock-free lane-0 up*/down* route.  The first byte is
	// consumed here (it is this switch's output port); the rest is stamped
	// on the exiting copy.  Blocking here is the one legal wait.
	esc := t.escape[slot]
	if len(esc) == 0 {
		s.adaptiveDrop(in)
		return
	}
	in.reqOuts = append(in.reqOuts[:0], int(esc[0])*nvc)
	in.reqStamps = append(in.reqStamps[:0], esc[1:])
	s.tryGrant(in, now)
}

// adaptiveDrop drains a marker worm with no way forward (destination
// unreachable under the current map).
func (s *swState) adaptiveDrop(in *inPort) {
	s.f.ctr.StaleRouteDrops++
	if in.worm.Epoch != s.f.epoch {
		s.f.ctr.EpochMismatches++
	}
	s.dropHead(in)
}

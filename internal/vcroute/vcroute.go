// Package vcroute owns routing-scheme identity: the registry of Scheme
// values (scheme.go) that sim, faulttest, core and the CLIs look up, and
// the table builders for every scheme other than up/down.  This file has
// the two original ones — VC-partitioned minimal (dimension-order) routing
// on a torus, and direct routing on a full mesh; schemes.go has the rest.
//
// Up/down routing buys deadlock freedom by detouring through the spanning
// tree root.  Minimal torus routing keeps every path shortest but its ring
// wrap-around closes a channel-dependency cycle; the classic fix (Dally &
// Seitz) partitions each ring's channels into two virtual-channel lanes
// with a *dateline*: a worm travels on lane 0 until its path crosses the
// ring's wrap edge and on lane 1 after, so the combined channel order
//
//	(x, lane0) < (x, lane1) < (y, lane0) < (y, lane1) < host sink
//
// is acyclic — lane 1 never re-crosses the wrap edge (minimal paths are
// shorter than the ring), x-before-y is dimension order, and host links
// always drain.  The lane of every hop is packed into the source-route
// byte (route.EncodeVCPort) for a fabric running with Config.VCHeaders.
//
// Full-mesh direct routing needs no virtual channels at all: every route
// is attach-switch -> peer-switch -> host, so an inter-switch channel only
// ever waits on a host delivery channel, which always drains.  The
// observation that mesh-like all-to-all fabrics admit VC-free deadlock
// freedom in exchange for switch degree is the trade studied by the
// full-mesh datacenter-topology line of work (arXiv 2510.14730); this
// package provides its LAN-scale analogue as a comparison point.
//
// Every builder returns an updown.Table so the adapter and sim layers are
// scheme-agnostic.
package vcroute

import (
	"fmt"

	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// hostAttach resolves a host's attach switch and the switch-side port
// leading back to the host.
func hostAttach(g *topology.Graph, h topology.NodeID) (sw topology.NodeID, port topology.PortID) {
	p := g.Node(h).Ports[0]
	return p.Peer, p.PeerPort
}

// newRoute starts a route of at most hops switch traversals: Ports and
// Switches are cut from slab, empty, with room for hops appends — so the
// builders append hop by hop without growing a slice per pair.
func newRoute(slab *updown.RouteSlab, src, dst topology.NodeID, hops int) updown.Route {
	ports, sws := slab.Take(hops)
	return updown.Route{Src: src, Dst: dst, Ports: ports[:0], Switches: sws[:0]}
}

// TorusMinimal builds the VC-partitioned minimal routing table for a torus
// built by topology.TorusWithGeom.  Routes are dimension-order (X then Y),
// take the shorter ring direction (ties go the + way), and switch from
// lane 0 to lane 1 after crossing each ring's wrap edge.  The table's
// route bytes are VC-encoded: the fabric must run with Config.VCHeaders
// and Config.NumVCs >= nvc.  nvc must be at least 2 (the dateline needs a
// second lane).
func TorusMinimal(g *topology.Graph, geo *topology.TorusGeom, nvc int) (*updown.Table, error) {
	return TorusMinimalSurviving(g, geo, nvc, nil)
}

// ringSteps returns the hop count and direction (+1/-1) of the shorter way
// from a to b around a ring of size n; ties go +.
func ringSteps(a, b, n int) (steps, dir int) {
	plus := (b - a + n) % n
	minus := (a - b + n) % n
	if plus <= minus {
		return plus, +1
	}
	return minus, -1
}

// torusRoute computes one VC-encoded dimension-order route.
func torusRoute(slab *updown.RouteSlab, geo *topology.TorusGeom, src, dst topology.NodeID, r1, c1, r2, c2, hostIdx int) (updown.Route, error) {
	xSteps, _ := ringSteps(c1, c2, geo.Cols)
	ySteps, _ := ringSteps(r1, r2, geo.Rows)
	rt := newRoute(slab, src, dst, xSteps+ySteps+1)
	appendHop := func(sw topology.NodeID, p topology.PortID, vc int) error {
		b, err := route.EncodeVCPort(p, vc)
		if err != nil {
			return fmt.Errorf("vcroute: %d->%d: %w", src, dst, err)
		}
		rt.Ports = append(rt.Ports, topology.PortID(b))
		rt.Switches = append(rt.Switches, sw)
		return nil
	}
	r, c := r1, c1
	// X dimension: walk the column ring of row r.
	steps, dir := ringSteps(c, c2, geo.Cols)
	vc := 0
	for k := 0; k < steps; k++ {
		var p topology.PortID
		var next int
		if dir > 0 {
			p = geo.XPlus[r][c]
			next = (c + 1) % geo.Cols
		} else {
			p = geo.XMinus[r][c]
			next = (c - 1 + geo.Cols) % geo.Cols
		}
		if err := appendHop(geo.Sw[r][c], p, vc); err != nil {
			return rt, err
		}
		// Dateline: crossing the ring's wrap edge moves later hops of this
		// dimension to lane 1.
		if (dir > 0 && c == geo.Cols-1) || (dir < 0 && c == 0) {
			vc = 1
		}
		c = next
	}
	// Y dimension: lanes restart at 0 — y channels are disjoint from x
	// channels, and dimension order keeps all x-holds before y-waits.
	steps, dir = ringSteps(r, r2, geo.Rows)
	vc = 0
	for k := 0; k < steps; k++ {
		var p topology.PortID
		var next int
		if dir > 0 {
			p = geo.YPlus[r][c]
			next = (r + 1) % geo.Rows
		} else {
			p = geo.YMinus[r][c]
			next = (r - 1 + geo.Rows) % geo.Rows
		}
		if err := appendHop(geo.Sw[r][c], p, vc); err != nil {
			return rt, err
		}
		if (dir > 0 && r == geo.Rows-1) || (dir < 0 && r == 0) {
			vc = 1
		}
		r = next
	}
	// Final hop into the destination host, on lane 0 (hosts speak lane 0).
	if err := appendHop(geo.Sw[r][c], geo.HostPort[r][c][hostIdx], 0); err != nil {
		return rt, err
	}
	return rt, nil
}

// FullMesh builds the direct routing table for a topology whose attach
// switches are pairwise adjacent (topology.FullMesh): same-switch pairs
// take the one-hop host route, everything else goes source switch -> peer
// switch -> host.  Route bytes are plain ports — no virtual channels are
// needed for deadlock freedom, so the table works with any NumVCs and
// with VCHeaders on or off.
func FullMesh(g *topology.Graph) (*updown.Table, error) {
	return FullMeshSurviving(g, nil)
}

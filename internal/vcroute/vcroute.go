// Package vcroute owns routing-scheme identity: the registry of Scheme
// values (scheme.go) that sim, faulttest, core and the CLIs look up, and
// the table builders for every scheme other than up/down.  This file has
// the all-pairs loop they share and the two original ones — VC-partitioned
// minimal (dimension-order) routing on a torus, and direct routing on a
// full mesh; schemes.go has the rest.
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

// pairTable is the all-pairs loop under every builder: build routes each
// ordered pair of distinct hosts whose attachment cables survive fail,
// appending the pair's hops to row and returning it (as it came for an
// unroutable pair); one scratch row serves every source.  Every other
// pair, and every pair build appends nothing to, stays unroutable.
func pairTable(g *topology.Graph, fail *updown.Failures,
	build func(row []topology.PortID, src, dst topology.NodeID) ([]topology.PortID, error)) (*updown.Table, error) {
	hosts := g.Hosts()
	b := updown.NewTableBuilder(hosts, hosts)
	for i, src := range hosts {
		live := !fail.LinkDead(g, src, 0)
		for j, dst := range hosts {
			if live && i != j && !fail.LinkDead(g, dst, 0) {
				var err error
				if b.Row, err = build(b.Row, src, dst); err != nil {
					return nil, err
				}
			}
			b.EndRoute()
		}
	}
	return b.Table(), nil
}

// placed is a host's place in a builder's geometry, indexed by NodeID so
// the two lookups per pair are slice loads; ok is false off the geometry.
type placed[T any] struct {
	at T
	ok bool
}

// locate looks both endpoints of a pair up in a builder's geometry index.
func locate[T any](index []placed[T], src, dst topology.NodeID, geom string) (s, d T, err error) {
	ps, pd := index[src], index[dst]
	if !ps.ok || !pd.ok {
		err = fmt.Errorf("vcroute: host pair %d->%d not in %s geometry", src, dst, geom)
	}
	return ps.at, pd.at, err
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

// torusCoord places a host on the torus: row, column and host index.
type torusCoord struct{ r, c, h int }

// torusRoute appends one VC-encoded dimension-order route to row.
func torusRoute(row []topology.PortID, geo *topology.TorusGeom, src, dst topology.NodeID, from, to torusCoord) ([]topology.PortID, error) {
	// pos and goal are (column, row): X is walked first, then Y.
	pos, goal := [2]int{from.c, from.r}, [2]int{to.c, to.r}
	dims := [2]struct {
		n           int
		plus, minus [][]topology.PortID
	}{{geo.Cols, geo.XPlus, geo.XMinus}, {geo.Rows, geo.YPlus, geo.YMinus}}
	var steps, dir [2]int
	for d := range dims {
		steps[d], dir[d] = ringSteps(pos[d], goal[d], dims[d].n)
	}
	appendHop := func(p topology.PortID, vc int) error {
		b, err := route.EncodeVCPort(p, vc)
		if err != nil {
			return fmt.Errorf("vcroute: %d->%d: %w", src, dst, err)
		}
		row = append(row, topology.PortID(b))
		return nil
	}
	for d, dim := range dims {
		// Lanes restart at 0 per dimension: y channels are disjoint from x
		// channels, and dimension order keeps all x-holds before y-waits.
		vc := 0
		for k := 0; k < steps[d]; k++ {
			c, r := pos[0], pos[1]
			p := dim.plus[r][c]
			if dir[d] < 0 {
				p = dim.minus[r][c]
			}
			if err := appendHop(p, vc); err != nil {
				return row, err
			}
			// Dateline: crossing the ring's wrap edge moves later hops of
			// this dimension to lane 1.
			if (dir[d] > 0 && pos[d] == dim.n-1) || (dir[d] < 0 && pos[d] == 0) {
				vc = 1
			}
			pos[d] = (pos[d] + dir[d] + dim.n) % dim.n
		}
	}
	// Final hop into the destination host, on lane 0 (hosts speak lane 0).
	err := appendHop(geo.HostPort[to.r][to.c][to.h], 0)
	return row, err
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

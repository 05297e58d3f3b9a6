package vcroute

// Additional routing schemes over the updown.Table interface: the Duato
// adaptive marker table (paired with network.AdaptiveTable on the fabric
// side), spine-deterministic Clos direct routing, forward-column shufflenet
// routing with wrap-count lanes, and failure-aware ("surviving") variants
// of every static scheme so topology-change recovery can rebuild them over
// the survivors.

import (
	"fmt"
	"sort"

	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// Adaptive builds the source-route table for Duato-style adaptive routing:
// every route is the single route.AdaptivePort marker byte, which a fabric
// with a network.AdaptiveTable installed re-decides per hop from local
// lane occupancy (adaptive lanes >= 1, lane-0 up*/down* escape).  Pairs
// the up/down labelling cannot reach get empty routes, so senders give up
// at the adapter instead of injecting doomed worms.
func Adaptive(g *topology.Graph, ud *updown.Routing) (*updown.Table, error) {
	hosts := g.Hosts()
	var slab updown.RouteSlab
	routes := make([][]updown.Route, len(hosts))
	for i, src := range hosts {
		routes[i] = make([]updown.Route, len(hosts))
		srcOK := ud.Reachable(src)
		sw, _ := g.HostAttachment(src)
		for j, dst := range hosts {
			if i == j || !srcOK || !ud.Reachable(dst) {
				continue
			}
			rt := newRoute(&slab, src, dst, 1)
			rt.Ports = append(rt.Ports, route.AdaptivePort)
			rt.Switches = append(rt.Switches, sw)
			routes[i][j] = rt
		}
	}
	return updown.NewCustomTable(hosts, routes)
}

// hostCut reports whether h's attachment link or switch is dead.
func hostCut(g *topology.Graph, fail *updown.Failures, h topology.NodeID) bool {
	if fail == nil {
		return false
	}
	sw, _ := g.HostAttachment(h)
	p := g.Node(h).Ports[0]
	return fail.SwitchDead(sw) || fail.LinkDead(g, h, topology.PortID(0)) ||
		fail.LinkDead(g, sw, p.PeerPort)
}

// routeDead reports whether rt crosses a failed switch or link.  vcEncoded
// selects whether the route bytes carry lane ids (route.DecodeVCPort) or
// are raw port numbers.
func routeDead(g *topology.Graph, fail *updown.Failures, rt updown.Route, vcEncoded bool) bool {
	if fail == nil {
		return false
	}
	for i, pb := range rt.Ports {
		sw := rt.Switches[i]
		if fail.SwitchDead(sw) {
			return true
		}
		port := topology.PortID(pb)
		if vcEncoded {
			p, _ := route.DecodeVCPort(byte(pb))
			port = topology.PortID(p)
		}
		if fail.LinkDead(g, sw, port) {
			return true
		}
	}
	return false
}

// TorusMinimalSurviving is TorusMinimal restricted to the surviving
// topology: pairs whose (unique) dimension-order route crosses a failed
// link or switch get empty routes.  Minimal torus routing has no legal
// detour — the dateline argument fixes the path — so recovery here is
// pruning, with drops counted at the sender.
func TorusMinimalSurviving(g *topology.Graph, geo *topology.TorusGeom, nvc int, fail *updown.Failures) (*updown.Table, error) {
	if geo == nil {
		return nil, fmt.Errorf("vcroute: torus geometry required (build with topology.TorusWithGeom)")
	}
	if nvc < 2 {
		return nil, fmt.Errorf("vcroute: dateline routing needs >= 2 virtual channels, have %d", nvc)
	}
	hosts := g.Hosts()
	type coord struct{ r, c, h int }
	at := make(map[topology.NodeID]coord, len(hosts))
	for r := range geo.Hosts {
		for c := range geo.Hosts[r] {
			for h, id := range geo.Hosts[r][c] {
				at[id] = coord{r, c, h}
			}
		}
	}
	var slab updown.RouteSlab
	routes := make([][]updown.Route, len(hosts))
	for i, src := range hosts {
		routes[i] = make([]updown.Route, len(hosts))
		sc, ok := at[src]
		if !ok {
			return nil, fmt.Errorf("vcroute: host %d not in torus geometry", src)
		}
		srcCut := hostCut(g, fail, src)
		for j, dst := range hosts {
			if i == j || srcCut || hostCut(g, fail, dst) {
				continue
			}
			dc := at[dst]
			rt, err := torusRoute(&slab, geo, src, dst, sc.r, sc.c, dc.r, dc.c, dc.h)
			if err != nil {
				return nil, err
			}
			if routeDead(g, fail, rt, true) {
				continue
			}
			routes[i][j] = rt
		}
	}
	return updown.NewCustomTable(hosts, routes)
}

// FullMeshSurviving is FullMesh restricted to the surviving topology:
// pairs whose direct leaf-to-leaf cable (or endpoint switch) died get
// empty routes.  The scheme has no multi-hop detours by construction, so
// recovery is pruning.
func FullMeshSurviving(g *topology.Graph, fail *updown.Failures) (*updown.Table, error) {
	hosts := g.Hosts()
	var slab updown.RouteSlab
	routes := make([][]updown.Route, len(hosts))
	for i, src := range hosts {
		routes[i] = make([]updown.Route, len(hosts))
		sa, _ := hostAttach(g, src)
		srcCut := hostCut(g, fail, src)
		for j, dst := range hosts {
			if i == j || srcCut || hostCut(g, fail, dst) {
				continue
			}
			da, dp := hostAttach(g, dst)
			rt := newRoute(&slab, src, dst, 2) // at most: peer switch, host
			if sa != da {
				// First live port on the source attach switch wired to the
				// destination attach switch, in ascending port order.
				found := topology.PortID(-1)
				for pi, p := range g.Node(sa).Ports {
					if !p.Wired() || p.Peer != da {
						continue
					}
					if fail != nil && fail.LinkDead(g, sa, topology.PortID(pi)) {
						continue
					}
					found = topology.PortID(pi)
					break
				}
				if found < 0 {
					if fail != nil {
						continue // direct cable dead: pair unroutable
					}
					return nil, fmt.Errorf("vcroute: switches %d and %d not adjacent (full mesh required)", sa, da)
				}
				rt.Ports = append(rt.Ports, found)
				rt.Switches = append(rt.Switches, sa)
			}
			rt.Ports = append(rt.Ports, dp)
			rt.Switches = append(rt.Switches, da)
			routes[i][j] = rt
		}
	}
	return updown.NewCustomTable(hosts, routes)
}

// Clos builds the spine-deterministic direct routing table for a
// leaf-spine fabric built by topology.ClosWithGeom.  Inter-leaf pairs ride
// leaf -> spine -> leaf with the spine chosen as (srcLeaf+dstLeaf) mod
// nSpine — a deterministic function of the pair that spreads load across
// the spine tier.  Like the full mesh, up channels wait only on down
// channels and down channels only on host deliveries, so no virtual
// channels are needed.
//
// fail, when non-nil, restricts routing to the survivors: the spine scan
// starts at the deterministic spine and advances to the next live one, so
// a spine kill genuinely reroutes instead of pruning.  Pairs with no live
// spine (or a dead endpoint) get empty routes.
func Clos(g *topology.Graph, geo *topology.ClosGeom, fail *updown.Failures) (*updown.Table, error) {
	if geo == nil {
		return nil, fmt.Errorf("vcroute: clos geometry required (build with topology.ClosWithGeom)")
	}
	hosts := g.Hosts()
	type loc struct{ l, h int }
	at := make(map[topology.NodeID]loc, len(hosts))
	for l := range geo.Hosts {
		for h, id := range geo.Hosts[l] {
			at[id] = loc{l, h}
		}
	}
	spineLive := func(li, s, lj int) bool {
		if fail == nil {
			return true
		}
		return !fail.SwitchDead(geo.Spine[s]) &&
			!fail.LinkDead(g, geo.Leaf[li], geo.Up[li][s]) &&
			!fail.LinkDead(g, geo.Leaf[lj], geo.Up[lj][s])
	}
	var slab updown.RouteSlab
	routes := make([][]updown.Route, len(hosts))
	for i, src := range hosts {
		routes[i] = make([]updown.Route, len(hosts))
		sl, ok := at[src]
		if !ok {
			return nil, fmt.Errorf("vcroute: host %d not in clos geometry", src)
		}
		srcCut := hostCut(g, fail, src)
		for j, dst := range hosts {
			if i == j || srcCut || hostCut(g, fail, dst) {
				continue
			}
			dl := at[dst]
			rt := newRoute(&slab, src, dst, 3) // at most: leaf, spine, leaf
			if sl.l != dl.l {
				spine := -1
				for t := 0; t < geo.NSpine; t++ {
					s := (sl.l + dl.l + t) % geo.NSpine
					if spineLive(sl.l, s, dl.l) {
						spine = s
						break
					}
				}
				if spine < 0 {
					continue // no surviving spine: pair unroutable
				}
				rt.Ports = append(rt.Ports, geo.Up[sl.l][spine], geo.Down[spine][dl.l])
				rt.Switches = append(rt.Switches, geo.Leaf[sl.l], geo.Spine[spine])
			}
			rt.Ports = append(rt.Ports, geo.HostPort[dl.l][dl.h])
			rt.Switches = append(rt.Switches, geo.Leaf[dl.l])
			routes[i][j] = rt
		}
	}
	return updown.NewCustomTable(hosts, routes)
}

// Shufflenet builds the forward-column routing table for a bidirectional
// shufflenet built by topology.BidirShufflenetWithGeom.  Every route moves
// strictly forward (column c to c+1 mod k), taking m hops with m in
// {d, d+k} for column distance d: the free digits of the row arithmetic
// pick the intermediate rows.  The virtual-channel lane of each hop is the
// number of column-wrap crossings so far, so the channel order
//
//	(lane, column) lexicographic, host sinks last
//
// strictly increases along every path — acyclic, hence deadlock-free.  A
// route crosses the wrap at most twice (m <= 2k-1), so nvc must be at
// least 3.  Route bytes are VC-encoded: the fabric must run VCHeaders with
// NumVCs >= nvc.
//
// fail, when non-nil, restricts routing to the survivors: for each pair
// the candidate paths (shorter m first, then ascending digit strings) are
// scanned for one that avoids dead links and switches — genuine path
// diversity for m > k.  Pairs with no surviving candidate get empty
// routes.
func Shufflenet(g *topology.Graph, geo *topology.ShuffleGeom, nvc int, fail *updown.Failures) (*updown.Table, error) {
	if geo == nil {
		return nil, fmt.Errorf("vcroute: shufflenet geometry required (build with topology.BidirShufflenetWithGeom)")
	}
	if nvc < 3 {
		return nil, fmt.Errorf("vcroute: forward-column shufflenet routing needs >= 3 virtual channels (wrap count reaches 2), have %d", nvc)
	}
	hosts := g.Hosts()
	type loc struct{ c, r int }
	at := make(map[topology.NodeID]loc, len(hosts))
	for c := range geo.Hosts {
		for r, id := range geo.Hosts[c] {
			at[id] = loc{c, r}
		}
	}
	pow := make([]int, 2*geo.K)
	pow[0] = 1
	for i := 1; i < len(pow); i++ {
		pow[i] = pow[i-1] * geo.P
	}
	var slab updown.RouteSlab
	routes := make([][]updown.Route, len(hosts))
	for i, src := range hosts {
		routes[i] = make([]updown.Route, len(hosts))
		sl, ok := at[src]
		if !ok {
			return nil, fmt.Errorf("vcroute: host %d not in shufflenet geometry", src)
		}
		srcCut := hostCut(g, fail, src)
		for j, dst := range hosts {
			if i == j || srcCut || hostCut(g, fail, dst) {
				continue
			}
			dl := at[dst]
			rt, err := shuffleRoute(&slab, g, geo, fail, pow, src, dst, sl.c, sl.r, dl.c, dl.r)
			if err != nil {
				return nil, err
			}
			routes[i][j] = rt
		}
	}
	return updown.NewCustomTable(hosts, routes)
}

// shuffleRoute computes one forward-column route, scanning candidate paths
// (shorter first, then ascending digit strings) for the first that
// survives fail.  An all-dead candidate set yields an empty route.
func shuffleRoute(slab *updown.RouteSlab, g *topology.Graph, geo *topology.ShuffleGeom, fail *updown.Failures, pow []int,
	src, dst topology.NodeID, c1, r1, c2, r2 int) (updown.Route, error) {
	d := (c2 - c1 + geo.K) % geo.K
	var ms []int
	switch {
	case d == 0 && r1 == r2:
		// Same switch: host hop only.
	case d == 0:
		ms = []int{geo.K}
	default:
		ms = []int{d, d + geo.K}
	}
	tryPath := func(m, x int) (updown.Route, bool, error) {
		rt := newRoute(slab, src, dst, m+1)
		cc, rr, lane := c1, r1, 0
		for h := 0; h < m; h++ {
			sw := geo.Sw[cc][rr]
			if fail.SwitchDead(sw) {
				return rt, false, nil
			}
			digit := (x / pow[m-1-h]) % geo.P
			p := geo.Fwd[cc][rr][digit]
			if fail.LinkDead(g, sw, p) {
				return rt, false, nil
			}
			b, err := route.EncodeVCPort(p, lane)
			if err != nil {
				return rt, false, fmt.Errorf("vcroute: %d->%d: %w", src, dst, err)
			}
			rt.Ports = append(rt.Ports, topology.PortID(b))
			rt.Switches = append(rt.Switches, sw)
			if cc == geo.K-1 {
				lane++ // wrap crossing: later hops ride the next lane
			}
			cc = (cc + 1) % geo.K
			rr = (rr*geo.P + digit) % geo.Rows
		}
		if cc != c2 || rr != r2 || fail.SwitchDead(geo.Sw[c2][r2]) {
			return rt, false, nil
		}
		// Final hop into the host, on lane 0 (hosts speak lane 0; host
		// channels always drain, so the lane reset is safe).
		b, err := route.EncodeVCPort(geo.HostPort[c2][r2], 0)
		if err != nil {
			return rt, false, fmt.Errorf("vcroute: %d->%d: %w", src, dst, err)
		}
		rt.Ports = append(rt.Ports, topology.PortID(b))
		rt.Switches = append(rt.Switches, geo.Sw[c2][r2])
		return rt, true, nil
	}
	if len(ms) == 0 {
		return tryFinal(tryPath(0, 0))
	}
	for _, m := range ms {
		// The digit string X must satisfy X = r2 - r1*p^m (mod p^k); the
		// quotient digits above p^k are free — each choice is a distinct
		// physical path, enumerated ascending for determinism.
		base := ((r2-r1*pow[m]%geo.Rows)%geo.Rows + geo.Rows) % geo.Rows
		if m < geo.K && base >= pow[m] {
			continue // too few digits to absorb the row delta
		}
		for x := base; x < pow[m]; x += geo.Rows {
			rt, ok, err := tryPath(m, x)
			if err != nil {
				return rt, err
			}
			if ok {
				return rt, nil
			}
			if fail == nil {
				break // without failures the first candidate always works
			}
		}
	}
	return updown.Route{Src: src, Dst: dst}, nil // no surviving path: pruned
}

// tryFinal adapts tryPath's 3-tuple to Shufflenet's (Route, error) shape
// for the same-switch case, where the single candidate must succeed.
func tryFinal(rt updown.Route, ok bool, err error) (updown.Route, error) {
	if err != nil {
		return rt, err
	}
	if !ok {
		return updown.Route{Src: rt.Src, Dst: rt.Dst}, nil
	}
	return rt, nil
}

// ValidateTable walks every route in tbl through the topology and reports
// ALL invalid pairs in one error — sorted by (src, dst), deterministic —
// instead of stopping at the first, so a broken builder is diagnosable in
// a single run.  vcEncoded selects VC route-byte decoding; when
// requireComplete is set, missing routes between distinct hosts are also
// reported (use it on fresh full-topology tables, not on failure-pruned
// rebuilds).
func ValidateTable(g *topology.Graph, tbl *updown.Table, vcEncoded, requireComplete bool) error {
	var bad []string
	for _, src := range tbl.Hosts {
		for _, dst := range tbl.Hosts {
			if src == dst {
				continue
			}
			if !tbl.HasRoute(src, dst) {
				if requireComplete {
					bad = append(bad, fmt.Sprintf("%d->%d: no route", src, dst))
				}
				continue
			}
			if msg := checkRoute(g, tbl.Lookup(src, dst), vcEncoded); msg != "" {
				bad = append(bad, fmt.Sprintf("%d->%d: %s", src, dst, msg))
			}
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("vcroute: %d invalid route(s):\n  %s", len(bad), joinLines(bad))
}

func joinLines(ss []string) string {
	out := ss[0]
	for _, s := range ss[1:] {
		out += "\n  " + s
	}
	return out
}

// checkRoute walks one route and returns a description of the first
// inconsistency ("" when the route is sound).  The adaptive marker route
// is accepted as-is: its hops are decided at the switches.
func checkRoute(g *topology.Graph, rt updown.Route, vcEncoded bool) string {
	if len(rt.Ports) == 1 && rt.Ports[0] == route.AdaptivePort {
		return ""
	}
	if len(rt.Ports) != len(rt.Switches) {
		return fmt.Sprintf("%d ports for %d switches", len(rt.Ports), len(rt.Switches))
	}
	sw, _ := g.HostAttachment(rt.Src)
	for i, pb := range rt.Ports {
		if rt.Switches[i] != sw {
			return fmt.Sprintf("hop %d: route says switch %d, walk is at %d", i, rt.Switches[i], sw)
		}
		port := topology.PortID(pb)
		if vcEncoded {
			p, vc := route.DecodeVCPort(byte(pb))
			if vc > 0 && i == len(rt.Ports)-1 {
				return fmt.Sprintf("hop %d: host delivery on lane %d (hosts speak lane 0)", i, vc)
			}
			port = topology.PortID(p)
		}
		if int(port) >= len(g.Node(sw).Ports) {
			return fmt.Sprintf("hop %d: port %d out of range at switch %d", i, port, sw)
		}
		p := g.Node(sw).Ports[port]
		if !p.Wired() {
			return fmt.Sprintf("hop %d: port %d of switch %d unwired", i, port, sw)
		}
		if i < len(rt.Ports)-1 {
			if g.Node(p.Peer).Kind != topology.Switch {
				return fmt.Sprintf("hop %d: left the switch fabric early (port %d of switch %d)", i, port, sw)
			}
			sw = p.Peer
		} else if p.Peer != rt.Dst {
			return fmt.Sprintf("final hop lands on node %d, not destination %d", p.Peer, rt.Dst)
		}
	}
	return ""
}

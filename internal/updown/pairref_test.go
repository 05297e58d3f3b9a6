package updown

// The per-pair reference: the early-exit breadth-first search that computed
// every route before the single-source Walk replaced it, kept as the oracle
// the Walk is compared against (a naive in-test reference, as in eventq's
// sorted-slice oracle).
// One search per (start switch, destination host), fresh scratch each time,
// stopping at the first state discovered on the destination's switch.  It
// reads none of the routing's port classes: up/down comes from the levels
// and node IDs, deadness from the failure set, and the tree from its own
// breadth-first search of the spanning tree (refParents).

import (
	"fmt"

	"wormlan/internal/topology"
)

// refRoute is a reference route with the switches it visits, which the
// search records as it goes (parallel to Ports).
type refRoute struct {
	Route
	sws []topology.NodeID
}

// routeState is a node plus the "have we gone down yet" phase of the
// up*/down* walk.
type routeState struct {
	node topology.NodeID
	down bool
}

// pairRoute is the reference host-to-host route.
func (r *Routing) pairRoute(src, dst topology.NodeID, treeOnly bool) (refRoute, error) {
	g := r.G
	if g.Node(src).Kind != topology.Host || g.Node(dst).Kind != topology.Host {
		return refRoute{}, fmt.Errorf("updown: route endpoints must be hosts (got %s, %s)",
			g.Node(src).Kind, g.Node(dst).Kind)
	}
	sSrc, _ := g.HostAttachment(src)
	if src == dst {
		return refRoute{}, fmt.Errorf("updown: route to self (host %d)", src)
	}
	if r.fail != nil && (!r.Reachable(src) || !r.Reachable(dst)) {
		return refRoute{}, fmt.Errorf("updown: no surviving route from host %d to host %d", src, dst)
	}
	rt, err := r.routeFrom(sSrc, dst, treeOnly)
	if err != nil {
		return refRoute{}, fmt.Errorf("updown: no legal route from host %d to host %d (treeOnly=%v)",
			src, dst, treeOnly)
	}
	rt.Src = src
	return rt, nil
}

// pairEscape is the reference switch-to-host escape route.
func (r *Routing) pairEscape(sw, dst topology.NodeID) (refRoute, error) {
	g := r.G
	if g.Node(sw).Kind != topology.Switch || g.Node(dst).Kind != topology.Host {
		return refRoute{}, fmt.Errorf("updown: escape route wants (switch, host), got (%s, %s)",
			g.Node(sw).Kind, g.Node(dst).Kind)
	}
	if r.Level[sw] < 0 {
		return refRoute{}, fmt.Errorf("updown: switch %d is not in the routed component", sw)
	}
	if r.fail != nil && !r.Reachable(dst) {
		return refRoute{}, fmt.Errorf("updown: host %d unreachable", dst)
	}
	return r.routeFrom(sw, dst, false)
}

// routeFrom is the reference BFS core: a shortest legal up*/down* walk from
// switch start to host dst.
func (r *Routing) routeFrom(start, dst topology.NodeID, treeOnly bool) (refRoute, error) {
	g := r.G
	sSrc := start
	sDst, dstPortOnSwitch := g.HostAttachment(dst)
	if sSrc == sDst {
		// Single-switch route: one port, straight to the destination host.
		return refRoute{Route{Src: start, Dst: dst, Ports: []topology.PortID{dstPortOnSwitch}},
			[]topology.NodeID{sSrc}}, nil
	}
	// BFS over (switch, phase).  Phase false = still allowed to go up.
	type prevHop struct {
		state routeState
		port  topology.PortID
	}
	idx := func(s routeState) int {
		i := int(s.node) * 2
		if s.down {
			i++
		}
		return i
	}
	var parents []topology.PortID
	if treeOnly {
		parents = r.refParents()
	}
	prev := make([]prevHop, 2*len(g.Nodes))
	seen := make([]bool, 2*len(g.Nodes))
	origin := routeState{sSrc, false}
	seen[idx(origin)] = true
	queue := make([]routeState, 0, len(g.Nodes))
	queue = append(queue, origin)
	var goal routeState
	found := false
	for qi := 0; qi < len(queue) && !found; qi++ {
		cur := queue[qi]
		for pi, p := range g.Node(cur.node).Ports {
			if !p.Wired() || g.Node(p.Peer).Kind != topology.Switch {
				continue
			}
			if treeOnly && !r.refInTree(parents, cur.node, topology.PortID(pi)) {
				continue
			}
			if r.fail.LinkDead(g, cur.node, topology.PortID(pi)) {
				continue
			}
			up := r.refUp(cur.node, topology.PortID(pi))
			if cur.down && up {
				continue // down->up transition is illegal
			}
			next := routeState{p.Peer, cur.down || !up}
			if seen[idx(next)] {
				continue
			}
			seen[idx(next)] = true
			prev[idx(next)] = prevHop{state: cur, port: topology.PortID(pi)}
			if p.Peer == sDst {
				goal = next
				found = true
				break
			}
			queue = append(queue, next)
		}
	}
	if !found {
		return refRoute{}, fmt.Errorf("updown: no legal route from switch %d to host %d (treeOnly=%v)",
			start, dst, treeOnly)
	}
	// Walk back from goal to start.
	var ports []topology.PortID
	var sws []topology.NodeID
	for cur := goal; cur != origin; {
		h := prev[idx(cur)]
		ports = append(ports, h.port)
		sws = append(sws, h.state.node)
		cur = h.state
	}
	// Reverse into forward order.
	for i, j := 0, len(ports)-1; i < j; i, j = i+1, j-1 {
		ports[i], ports[j] = ports[j], ports[i]
		sws[i], sws[j] = sws[j], sws[i]
	}
	ports = append(ports, dstPortOnSwitch)
	sws = append(sws, sDst)
	return refRoute{Route{Src: start, Dst: dst, Ports: ports}, sws}, nil
}

// pairTable is the reference all-pairs table: strict fails on the first
// row-major pair without a route (the old NewTable), otherwise unroutable
// pairs stay empty (the old NewTableSurviving).
func (r *Routing) pairTable(treeOnly, strict bool) ([][]refRoute, error) {
	hosts := r.G.Hosts()
	routes := make([][]refRoute, len(hosts))
	for i, src := range hosts {
		routes[i] = make([]refRoute, len(hosts))
		if !strict && !r.Reachable(src) {
			continue
		}
		for j, dst := range hosts {
			if i == j || (!strict && !r.Reachable(dst)) {
				continue
			}
			rt, err := r.pairRoute(src, dst, treeOnly)
			if err != nil {
				if strict {
					return nil, err
				}
				continue
			}
			routes[i][j] = rt
		}
	}
	return routes, nil
}

// refUp is the up*/down* rule read straight off the levels: the link out of
// port p of switch n goes up when it leads to a switch at a strictly lower
// level, or at an equal level with a lower node ID.
func (r *Routing) refUp(n topology.NodeID, p topology.PortID) bool {
	peer := r.G.Node(n).Ports[p].Peer
	if r.G.Node(peer).Kind != topology.Switch {
		return false
	}
	lu, lv := r.Level[n], r.Level[peer]
	if lv != lu {
		return lv < lu
	}
	return peer < n
}

// refParents is the spanning tree by its own breadth-first search from the
// root over the live switch cables, ports in ascending order: each reached
// switch's port on the cable it was discovered over, NoPort elsewhere.
func (r *Routing) refParents() []topology.PortID {
	g := r.G
	parents := make([]topology.PortID, len(g.Nodes))
	seen := make([]bool, len(g.Nodes))
	for i := range parents {
		parents[i] = topology.NoPort
	}
	seen[r.Root] = true
	for queue := []topology.NodeID{r.Root}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for pi, p := range g.Node(u).Ports {
			if !p.Wired() || seen[p.Peer] || g.Node(p.Peer).Kind != topology.Switch ||
				r.fail.LinkDead(g, u, topology.PortID(pi)) {
				continue
			}
			seen[p.Peer] = true
			parents[p.Peer] = p.PeerPort
			queue = append(queue, p.Peer)
		}
	}
	return parents
}

// refInTree reports whether the link out of port p of node n is in the
// spanning tree whose parent ports are parents: a live host cable, or the
// parent cable of either end.
func (r *Routing) refInTree(parents []topology.PortID, n topology.NodeID, p topology.PortID) bool {
	g := r.G
	port := g.Node(n).Ports[p]
	if g.Node(n).Kind == topology.Host || g.Node(port.Peer).Kind == topology.Host {
		return !r.fail.LinkDead(g, n, p)
	}
	return parents[n] == p || parents[port.Peer] == port.PeerPort
}

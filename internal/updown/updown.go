// Package updown implements the deadlock-free up*/down* routing scheme
// introduced by Autonet [SBB+91] and employed by Myrinet, as described in
// Section 2 of the paper.
//
// One switch is chosen as the root of a spanning tree (computed here by
// breadth-first search; Myrinet computes it with a background "mapping"
// algorithm).  Every directed switch-to-switch link is labelled 'up' if it
// points from a lower to a higher level in the tree — i.e. toward a node at
// a smaller distance from the root — with node IDs breaking ties between
// same-level nodes.  A legal route traverses zero or more 'up' links
// followed by zero or more 'down' links.  Because every cycle in the
// network would need a down->up transition somewhere, circular waits are
// impossible and the routing is deadlock-free.
//
// The package also provides the tree-restricted variant used by the
// switch-level multicast scheme of Section 3, in which worms may only use
// links of the spanning tree itself (crosslinks are excluded entirely).
package updown

import (
	"fmt"

	"wormlan/internal/topology"
)

// Routing holds the up/down labelling of a topology and computes routes.
type Routing struct {
	G    *topology.Graph
	Root topology.NodeID

	// Level is the BFS distance of each switch from the root
	// (only meaningful for switch nodes; hosts get -1).
	Level []int
	// ParentPort is the output port on the switch leading to its
	// spanning-tree parent (root, hosts and cut-off switches: NoPort).
	ParentPort []topology.PortID

	// inTree[n][p] reports whether the directed link out of port p of node
	// n is part of the spanning tree (host links are always in tree).
	inTree [][]bool

	// fail is the failure set the labelling was computed against; nil for a
	// healthy fabric (New).  Routes never cross links it marks dead.
	fail *Failures
}

// New computes the up/down labelling of g rooted at the given switch.
// If root is topology.None, the lowest-numbered switch is used.
func New(g *topology.Graph, root topology.NodeID) (*Routing, error) {
	return WithoutEdges(g, root, nil)
}

// Parent returns switch n's spanning-tree parent (root, hosts and cut-off
// switches: None).
func (r *Routing) Parent(n topology.NodeID) topology.NodeID {
	if r.ParentPort[n] == topology.NoPort {
		return topology.None
	}
	return r.G.Node(n).Ports[r.ParentPort[n]].Peer
}

// IsUp reports whether traversing the link out of port p of switch n is an
// 'up' traversal: toward a strictly lower level, or toward an equal-level
// switch with a lower node ID.
func (r *Routing) IsUp(n topology.NodeID, p topology.PortID) bool {
	port := r.G.Node(n).Ports[p]
	peer := port.Peer
	if r.G.Node(peer).Kind != topology.Switch {
		return false
	}
	lu, lv := r.Level[n], r.Level[peer]
	if lv != lu {
		return lv < lu
	}
	return peer < n
}

// InTree reports whether the link out of port p of node n is part of the
// up/down spanning tree.
func (r *Routing) InTree(n topology.NodeID, p topology.PortID) bool {
	return r.inTree[n][p]
}

// Route is a Myrinet-style source route: the output port to take at each
// switch on the path, in order.  The final port delivers the worm to the
// destination host adapter.
type Route struct {
	Src, Dst topology.NodeID
	Ports    []topology.PortID
	// Switches visited, parallel to Ports (Switches[i] takes Ports[i]).
	Switches []topology.NodeID
}

// Hops returns the number of switch traversals on the route.
func (rt Route) Hops() int { return len(rt.Ports) }

// route computes a shortest legal up*/down* route from host src to host
// dst as a one-shot walk.  Among equal-length routes the choice is
// deterministic (the paper's simulation likewise fixes one path per
// source-destination pair).  treeOnly restricts the walk to spanning-tree
// links, the crosslink-free discipline required by the switch-level
// multicast scheme of Section 3.
func (r *Routing) route(src, dst topology.NodeID, treeOnly bool) (Route, error) {
	g := r.G
	if g.Node(src).Kind != topology.Host || g.Node(dst).Kind != topology.Host {
		return Route{}, fmt.Errorf("updown: route endpoints must be hosts (got %s, %s)",
			g.Node(src).Kind, g.Node(dst).Kind)
	}
	if src == dst {
		return Route{}, fmt.Errorf("updown: route to self (host %d)", src)
	}
	if r.Reachable(src) && r.Reachable(dst) {
		sw, _ := g.HostAttachment(src)
		w := r.newWalk()
		w.run(sw, treeOnly)
		if rt, ok := w.to(dst); ok {
			rt.Src = src
			return rt, nil
		}
	}
	return Route{}, r.routeErr(src, dst, treeOnly)
}

// routeErr words the failure to route between two distinct hosts.
func (r *Routing) routeErr(src, dst topology.NodeID, treeOnly bool) error {
	if !r.Reachable(src) || !r.Reachable(dst) {
		return fmt.Errorf("updown: no surviving route from host %d to host %d", src, dst)
	}
	return fmt.Errorf("updown: no legal route from host %d to host %d (treeOnly=%v)",
		src, dst, treeOnly)
}

// Route computes a shortest legal up*/down* route between two hosts.
func (r *Routing) Route(src, dst topology.NodeID) (Route, error) {
	return r.route(src, dst, false)
}

// Table precomputes routes between every ordered pair of hosts.  Route
// slices of a table built here alias one per-table slab: read them, never
// append to or write through them.
type Table struct {
	Hosts []topology.NodeID
	// index maps a NodeID to its row/column in routes; -1 for non-hosts.
	index  []int32
	routes [][]Route
}

// newTable indexes hosts and wraps routes (square over hosts).
func newTable(hosts []topology.NodeID, routes [][]Route) *Table {
	size := 0
	for _, h := range hosts {
		if int(h) >= size {
			size = int(h) + 1
		}
	}
	t := &Table{Hosts: hosts, index: make([]int32, size), routes: routes}
	for i := range t.index {
		t.index[i] = -1
	}
	for i, h := range hosts {
		t.index[h] = int32(i)
	}
	return t
}

// NewTable builds a route table over all hosts of the topology, failing on
// the first (row-major) pair without a route.
func (r *Routing) NewTable(treeOnly bool) (*Table, error) {
	return r.buildTable(treeOnly, true)
}

// NewTableSurviving precomputes routes between every ordered pair of
// mutually reachable hosts, leaving unroutable pairs empty instead of
// failing the whole table the way NewTable does.  Use Table.HasRoute to
// test a pair before Lookup.
func (r *Routing) NewTableSurviving(treeOnly bool) (*Table, error) {
	return r.buildTable(treeOnly, false)
}

// buildTable fills the all-pairs table from one walk per source switch: a
// row re-walks only when its switch differs from the previous row's, and
// every builder numbers the hosts of a switch consecutively.  Reachable
// endpoints always route (up to the root works); other pairs come out absent.
func (r *Routing) buildTable(treeOnly, strict bool) (*Table, error) {
	hosts := r.G.Hosts()
	n := len(hosts)
	reach := make([]bool, n)
	for i, h := range hosts {
		reach[i] = r.Reachable(h)
	}
	flat := make([]Route, n*n)
	routes := make([][]Route, n)
	w := r.newWalk()
	for i, src := range hosts {
		routes[i] = flat[i*n : (i+1)*n : (i+1)*n]
		if sw, _ := r.G.HostAttachment(src); reach[i] && sw != w.start {
			w.run(sw, treeOnly)
		}
		for j, dst := range hosts {
			if i == j {
				continue
			}
			if reach[i] && reach[j] {
				if rt, ok := w.to(dst); ok {
					rt.Src = src
					routes[i][j] = rt
					continue
				}
			}
			if strict {
				return nil, r.routeErr(src, dst, treeOnly)
			}
		}
	}
	return newTable(hosts, routes), nil
}

// NewCustomTable wraps externally computed routes (an alternative routing
// scheme — e.g. VC-partitioned minimal torus routing or full-mesh direct
// routing, see internal/vcroute) in a Table, so the adapter and simulation
// layers consume every scheme through one type.  routes must be square
// over hosts, with routes[i][j] the route from hosts[i] to hosts[j].
func NewCustomTable(hosts []topology.NodeID, routes [][]Route) (*Table, error) {
	if len(routes) != len(hosts) {
		return nil, fmt.Errorf("updown: %d route rows for %d hosts", len(routes), len(hosts))
	}
	for i := range hosts {
		if len(routes[i]) != len(hosts) {
			return nil, fmt.Errorf("updown: route row %d has %d entries for %d hosts",
				i, len(routes[i]), len(hosts))
		}
	}
	return newTable(hosts, routes), nil
}

// at returns n's row/column in the table, or -1 when n is not one of its hosts.
func (t *Table) at(n topology.NodeID) int {
	if n < 0 || int(n) >= len(t.index) {
		return -1
	}
	return int(t.index[n])
}

// HasRoute reports whether the table holds a route from src to dst.
func (t *Table) HasRoute(src, dst topology.NodeID) bool {
	i, j := t.at(src), t.at(dst)
	return i >= 0 && j >= 0 && len(t.routes[i][j].Ports) > 0
}

// Lookup returns the precomputed route from src to dst: the zero Route when
// the pair has none or an endpoint is not one of the table's hosts.
func (t *Table) Lookup(src, dst topology.NodeID) Route {
	if i, j := t.at(src), t.at(dst); i >= 0 && j >= 0 {
		return t.routes[i][j]
	}
	return Route{}
}

// MeanHops returns the average switch-hop count over all ordered host
// pairs; the paper notes up/down paths "are generally not shortest paths".
func (t *Table) MeanHops() float64 {
	total, n := 0, 0
	for i := range t.routes {
		for j := range t.routes[i] {
			if i == j {
				continue
			}
			total += t.routes[i][j].Hops()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// Hop is one switch traversal of a route as Route.Walk hands it out: hop
// number Index leaves Switch by Port on lane Lane and lands on Peer.
type Hop struct {
	Index  int
	Switch topology.NodeID
	Port   topology.PortID
	Lane   int
	Peer   topology.NodeID
}

// Walk follows rt through g from its source — a switch (an escape route,
// see Escapes) or a host's attach switch — and is the one walker every
// route check shares.  It checks that the route names each
// switch the walk reaches, that every port is in range and wired, that the
// route stays in the switch fabric until its last hop, and that the last
// hop lands on Dst; an empty route reaches no host and is an error too.
// decode splits a route byte into port and lane; nil reads plain port
// bytes on lane 0.  visit, when not nil, sees each hop once the walk has
// checked it, and its first error ends the walk.
func (rt Route) Walk(g *topology.Graph, decode func(topology.PortID) (topology.PortID, int), visit func(Hop) error) error {
	if len(rt.Ports) == 0 || len(rt.Ports) != len(rt.Switches) {
		return fmt.Errorf("%d ports for %d switches", len(rt.Ports), len(rt.Switches))
	}
	sw := rt.Src
	if g.Node(sw).Kind != topology.Switch {
		sw, _ = g.HostAttachment(sw)
	}
	for i, b := range rt.Ports {
		if rt.Switches[i] != sw {
			return fmt.Errorf("hop %d: route says switch %d, walk is at %d", i, rt.Switches[i], sw)
		}
		h := Hop{Index: i, Switch: sw, Port: b}
		if decode != nil {
			h.Port, h.Lane = decode(b)
		}
		ports := g.Node(sw).Ports
		if int(h.Port) >= len(ports) {
			return fmt.Errorf("hop %d: port %d out of range at switch %d", i, h.Port, sw)
		}
		p := ports[h.Port]
		if !p.Wired() {
			return fmt.Errorf("hop %d: port %d of switch %d unwired", i, h.Port, sw)
		}
		h.Peer = p.Peer
		last := i == len(rt.Ports)-1
		if !last && g.Node(p.Peer).Kind != topology.Switch {
			return fmt.Errorf("hop %d: reached host %d before end of route", i, p.Peer)
		}
		if last && p.Peer != rt.Dst {
			return fmt.Errorf("route delivers to node %d, want %d", p.Peer, rt.Dst)
		}
		if visit != nil {
			if err := visit(h); err != nil {
				return err
			}
		}
		sw = p.Peer
	}
	return nil
}

// VerifyRoute checks that a route is a legal up*/down* walk through the
// topology ending at the destination host: a Walk that crosses no failed
// link and never turns from down to up.  Used by tests and by the
// deadlock-freedom property checks.
func (r *Routing) VerifyRoute(rt Route) error {
	goneDown := false
	return rt.Walk(r.G, nil, func(h Hop) error {
		if r.fail.LinkDead(r.G, h.Switch, h.Port) {
			return fmt.Errorf("hop %d: port %d of switch %d crosses a failed link", h.Index, h.Port, h.Switch)
		}
		if r.G.Node(h.Peer).Kind != topology.Switch {
			return nil
		}
		up := r.IsUp(h.Switch, h.Port)
		if goneDown && up {
			return fmt.Errorf("hop %d: illegal down->up transition at switch %d", h.Index, h.Switch)
		}
		goneDown = goneDown || !up
		return nil
	})
}

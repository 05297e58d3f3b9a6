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
	"errors"
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
// destination host adapter.  A route names no switches: Walk follows the
// ports from Src to find them.
type Route struct {
	Src, Dst topology.NodeID
	Ports    []topology.PortID
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
		if ports, ok := w.to(nil, dst); ok {
			return Route{Src: src, Dst: dst, Ports: ports}, nil
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

// Table precomputes routes between every ordered pair of hosts.  Each
// source host's routes sit back to back in one exactly sized row of ports,
// and one offset array locates every pair in its row: a table holds the
// route bytes and four bytes per pair, nothing per hop beyond its port.
// Build one with NewTable, NewTableSurviving or a TableBuilder.
type Table struct {
	Hosts []topology.NodeID
	// index maps a NodeID to its row/column; -1 for non-hosts.
	index []int32
	// rows[i] holds the routes from Hosts[i], to Hosts[0], Hosts[1], ...
	// in turn; the route to Hosts[j] is rows[i][off[k]:off[k+1]] with
	// k = i*(len(Hosts)+1) + j.  An empty span is a pair without a route.
	rows [][]topology.PortID
	off  []int32
}

// TableBuilder assembles a Table route by route: sources in host order
// and, for each source, every destination in host order, the source itself
// included.  A route builder appends a route's hops to Row and calls
// EndRoute; an unroutable pair (and the source's own column) appends
// nothing.  Row may be truncated back to where the current route began, to
// drop a partial route.
type TableBuilder struct {
	// Row is the current source's routes so far.  After a source's last
	// EndRoute the table keeps Row itself when it is exactly full (a caller
	// that sized it, see Routing.buildTable) and otherwise an exact copy,
	// Row then being reused for the next source.
	Row []topology.PortID
	t   *Table
	i   int // current source row
	j   int // next destination column
}

// NewTableBuilder starts a table over hosts, its rows and columns in their
// order.
func NewTableBuilder(hosts []topology.NodeID) *TableBuilder {
	size := 0
	for _, h := range hosts {
		size = max(size, int(h)+1)
	}
	n := len(hosts)
	t := &Table{Hosts: hosts, index: make([]int32, size),
		rows: make([][]topology.PortID, n), off: make([]int32, n*(n+1))}
	for i := range t.index {
		t.index[i] = -1
	}
	for i, h := range hosts {
		t.index[h] = int32(i)
	}
	return &TableBuilder{t: t}
}

// EndRoute closes the route from the current source to the current
// destination: the hops appended to Row since the previous EndRoute.
// After the source's last destination it files the row and moves to the
// next source.
func (b *TableBuilder) EndRoute() {
	t, n := b.t, len(b.t.Hosts)
	b.j++
	t.off[b.i*(n+1)+b.j] = int32(len(b.Row))
	if b.j < n {
		return
	}
	if len(b.Row) == cap(b.Row) {
		t.rows[b.i], b.Row = b.Row, nil
	} else {
		t.rows[b.i] = append([]topology.PortID(nil), b.Row...)
		b.Row = b.Row[:0]
	}
	b.i, b.j = b.i+1, 0
}

// Table returns the finished table.  It panics unless every source row has
// been ended.
func (b *TableBuilder) Table() *Table {
	if b.i != len(b.t.Hosts) {
		panic(fmt.Sprintf("updown: table built to row %d of %d", b.i, len(b.t.Hosts)))
	}
	return b.t
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
// every builder numbers the hosts of a switch consecutively.  Each row is
// sized from the walk's depths and then appended to straight from the walk,
// so the builder keeps it without a copy.  Reachable endpoints always route
// (up to the root works); other pairs come out absent.
func (r *Routing) buildTable(treeOnly, strict bool) (*Table, error) {
	hosts := r.G.Hosts()
	reach := make([]bool, len(hosts))
	for i, h := range hosts {
		reach[i] = r.Reachable(h)
	}
	b := NewTableBuilder(hosts)
	w := r.newWalk()
	for i, src := range hosts {
		size := 0
		if reach[i] {
			if sw, _ := r.G.HostAttachment(src); sw != w.start {
				w.run(sw, treeOnly)
			}
			for j, dst := range hosts {
				if j != i && reach[j] {
					size += w.hops(dst)
				}
			}
		}
		b.Row = make([]topology.PortID, 0, size)
		for j, dst := range hosts {
			if i != j {
				ok := false
				if reach[i] && reach[j] {
					b.Row, ok = w.to(b.Row, dst)
				}
				if !ok && strict {
					return nil, r.routeErr(src, dst, treeOnly)
				}
			}
			b.EndRoute()
		}
	}
	return b.Table(), nil
}

// at returns n's row/column in the table, or -1 when n is not one of its hosts.
func (t *Table) at(n topology.NodeID) int {
	if n < 0 || int(n) >= len(t.index) {
		return -1
	}
	return int(t.index[n])
}

// route returns the route from Hosts[i] to Hosts[j], capped at its length;
// ok is false, and the Route zero, when the pair has none.
func (t *Table) route(i, j int) (_ Route, ok bool) {
	k := i*(len(t.Hosts)+1) + j
	a, b := t.off[k], t.off[k+1]
	if a == b {
		return Route{}, false
	}
	return Route{Src: t.Hosts[i], Dst: t.Hosts[j], Ports: t.rows[i][a:b:b]}, true
}

// HasRoute reports whether the table holds a route from src to dst.
func (t *Table) HasRoute(src, dst topology.NodeID) bool {
	i, j := t.at(src), t.at(dst)
	if i < 0 || j < 0 {
		return false
	}
	_, ok := t.route(i, j)
	return ok
}

// Lookup returns the precomputed route from src to dst: the zero Route when
// the pair has none or an endpoint is not one of the table's hosts.  Ports
// is a view of the table, capped so an append copies: read it, never write
// through it.
func (t *Table) Lookup(src, dst topology.NodeID) Route {
	i, j := t.at(src), t.at(dst)
	if i < 0 || j < 0 {
		return Route{}
	}
	rt, _ := t.route(i, j)
	return rt
}

// MeanHops returns the average switch-hop count over all ordered host
// pairs; the paper notes up/down paths "are generally not shortest paths".
func (t *Table) MeanHops() float64 {
	n := len(t.Hosts)
	if n < 2 {
		return 0
	}
	total := 0
	for _, row := range t.rows {
		total += len(row)
	}
	return float64(total) / float64(n*(n-1))
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
// route check shares: each hop's switch is the peer the previous hop landed
// on.  It checks that every port is in range and wired, that the route
// stays in the switch fabric until its last hop, and that the last hop
// lands on Dst; an empty route reaches no host and is an error too.
// decode splits a route byte into port and lane; nil reads plain port
// bytes on lane 0.  visit, when not nil, sees each hop once the walk has
// checked it, and its first error ends the walk.
func (rt Route) Walk(g *topology.Graph, decode func(topology.PortID) (topology.PortID, int), visit func(Hop) error) error {
	if len(rt.Ports) == 0 {
		return errors.New("empty route")
	}
	sw := rt.Src
	if g.Node(sw).Kind != topology.Switch {
		sw, _ = g.HostAttachment(sw)
	}
	for i, b := range rt.Ports {
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

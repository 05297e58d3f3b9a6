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

	// class[at[n]+p] labels the link out of port p of node n; WithoutEdges
	// fixes every label once.
	class []portClass
	at    []int32

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

// portClass is the up*/down* label of one directed link, the link out of
// one port of one node (Section 2): a set of the port* bits.  An unwired
// port has none.
type portClass uint8

const (
	// portHop: a live switch-to-switch link, one the walks may cross.
	portHop portClass = 1 << iota
	// portUp: an 'up' traversal, switch to switch, live or not: toward a
	// strictly lower level, or toward an equal-level switch with a lower
	// node ID.
	portUp
	// portTree: in the spanning tree; every live host cable is.
	portTree
	// portDead: wired, but the cable failed or touches a dead or cut-off
	// switch.
	portDead
)

// classOf returns the label of the link out of port p of node n.
func (r *Routing) classOf(n topology.NodeID, p topology.PortID) portClass {
	return r.class[int(r.at[n])+int(p)]
}

// IsUp reports whether traversing the link out of port p of switch n is an
// 'up' traversal: toward a strictly lower level, or toward an equal-level
// switch with a lower node ID.
func (r *Routing) IsUp(n topology.NodeID, p topology.PortID) bool {
	return r.classOf(n, p)&portUp != 0
}

// InTree reports whether the link out of port p of node n is part of the
// up/down spanning tree.
func (r *Routing) InTree(n topology.NodeID, p topology.PortID) bool {
	return r.classOf(n, p)&portTree != 0
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

// Table precomputes one route from each of its sources to each of its
// hosts: every ordered pair of hosts (NewTable, NewTableSurviving), or
// every switch to every host (Escapes).  Each source's routes sit back to
// back in one exactly sized row of ports, and one offset array locates
// every pair in its row: a table holds the route bytes and four bytes per
// pair, nothing per hop beyond its port.  Build one with NewTable,
// NewTableSurviving, Escapes or a TableBuilder.
type Table struct {
	// Srcs are the sources, one row each; a host table's are its Hosts.
	Srcs []topology.NodeID
	// Hosts are the destinations, one column each.
	Hosts []topology.NodeID
	// src and dst map a NodeID to its row and column; -1 elsewhere.
	src, dst []int32
	// rows[i] holds the routes from Srcs[i], to Hosts[0], Hosts[1], ...
	// in turn; the route to Hosts[j] is rows[i][off[k]:off[k+1]] with
	// k = i*(len(Hosts)+1) + j.  An empty span is a pair without a route.
	rows [][]topology.PortID
	off  []int32
}

// TableBuilder assembles a Table route by route: sources in order and, for
// each source, every destination in order, the source itself included.  A
// route builder appends a route's hops to Row and calls EndRoute; an
// unroutable pair (and a source's own column) appends nothing.  Row may be
// truncated back to where the current route began, to drop a partial
// route.
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

// NewTableBuilder starts a table from srcs to dsts, its rows and columns in
// their order.
func NewTableBuilder(srcs, dsts []topology.NodeID) *TableBuilder {
	n := len(dsts)
	return &TableBuilder{t: &Table{Srcs: srcs, Hosts: dsts, src: indexOf(srcs), dst: indexOf(dsts),
		rows: make([][]topology.PortID, len(srcs)), off: make([]int32, len(srcs)*(n+1))}}
}

// indexOf maps each NodeID to its place in nodes, -1 elsewhere.
func indexOf(nodes []topology.NodeID) []int32 {
	size := 0
	for _, n := range nodes {
		size = max(size, int(n)+1)
	}
	index := make([]int32, size)
	for i := range index {
		index[i] = -1
	}
	for i, n := range nodes {
		index[n] = int32(i)
	}
	return index
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
	if b.i != len(b.t.Srcs) {
		panic(fmt.Sprintf("updown: table built to row %d of %d", b.i, len(b.t.Srcs)))
	}
	return b.t
}

// NewTable builds a route table over all hosts of the topology, failing on
// the first (row-major) pair without a route.
func (r *Routing) NewTable(treeOnly bool) (*Table, error) {
	hosts := r.G.Hosts()
	return r.buildTable(hosts, hosts, treeOnly, true)
}

// NewTableSurviving precomputes routes between every ordered pair of
// mutually reachable hosts, leaving unroutable pairs empty instead of
// failing the whole table the way NewTable does.  Use Table.HasRoute to
// test a pair before Lookup.
func (r *Routing) NewTableSurviving(treeOnly bool) (*Table, error) {
	hosts := r.G.Hosts()
	return r.buildTable(hosts, hosts, treeOnly, false)
}

// Escapes returns the escape routes of adaptive routing, a table with one
// row per switch in g.Switches() order: the up*/down* route from that
// switch to every reachable host attached elsewhere.  A worm that wandered
// off the up/down order on the adaptive lanes re-enters it where it bails
// out, in the up phase as a freshly injected worm would; since every
// escape-resident worm then holds and waits only on lane-0 channels of one
// legal walk, the union of waits stays acyclic, which Table.Prove checks.
// A host on the row's own switch has no route (the switch delivers), and
// a switch outside the routed component has an empty row.
func (r *Routing) Escapes() *Table {
	t, _ := r.buildTable(r.G.Switches(), r.G.Hosts(), false, false)
	return t
}

// buildTable fills the table from srcs (hosts or switches) to hosts from
// one walk per source switch: a row re-walks only when its switch differs
// from the previous row's, and every builder numbers the hosts of a switch
// consecutively.  A source routes to every reachable host but itself and
// those hanging off it, and only if it is reachable: a host by Reachable,
// a switch by its level.  Each row is sized from the walk's depths and
// then appended to straight from the walk, so the builder keeps it without
// a copy.  Reachable endpoints always route (up to the root works); other
// pairs come out absent, or fail a strict table.
func (r *Routing) buildTable(srcs, hosts []topology.NodeID, treeOnly, strict bool) (*Table, error) {
	g := r.G
	reach := make([]bool, len(hosts))
	for j, h := range hosts {
		reach[j] = r.Reachable(h)
	}
	b := NewTableBuilder(srcs, hosts)
	w := r.newWalk()
	for _, src := range srcs {
		sw, live := src, r.Level[src] >= 0
		if g.Node(src).Kind == topology.Host {
			sw, _ = g.HostAttachment(src)
			live = r.Reachable(src)
		}
		size := 0
		if live {
			if sw != w.start {
				w.run(sw, treeOnly)
			}
			for j, dst := range hosts {
				if at, _ := g.HostAttachment(dst); reach[j] && dst != src && at != src {
					size += w.hops(dst)
				}
			}
		}
		b.Row = make([]topology.PortID, 0, size)
		for j, dst := range hosts {
			if at, _ := g.HostAttachment(dst); dst != src && at != src {
				ok := false
				if live && reach[j] {
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

// at returns n's place in index, or -1 when n is not there.
func at(index []int32, n topology.NodeID) int {
	if n < 0 || int(n) >= len(index) {
		return -1
	}
	return int(index[n])
}

// route returns the route from Srcs[i] to Hosts[j], capped at its length:
// the Route zero when the pair has none.
func (t *Table) route(i, j int) Route {
	k := i*(len(t.Hosts)+1) + j
	a, b := t.off[k], t.off[k+1]
	if a == b {
		return Route{}
	}
	return Route{Src: t.Srcs[i], Dst: t.Hosts[j], Ports: t.rows[i][a:b:b]}
}

// HasRoute reports whether the table holds a route from src to dst.
func (t *Table) HasRoute(src, dst topology.NodeID) bool {
	i, j := at(t.src, src), at(t.dst, dst)
	if i < 0 || j < 0 {
		return false
	}
	k := i*(len(t.Hosts)+1) + j
	return t.off[k] != t.off[k+1]
}

// Lookup returns the precomputed route from src to dst: the zero Route when
// the pair has none or an endpoint is not one of the table's.  Ports is a
// view of the table, capped so an append copies: read it, never write
// through it.
func (t *Table) Lookup(src, dst topology.NodeID) Route {
	i, j := at(t.src, src), at(t.dst, dst)
	if i < 0 || j < 0 {
		return Route{}
	}
	return t.route(i, j)
}

// Hops returns the switch traversals of all the table's routes together:
// its port count.
func (t *Table) Hops() int {
	total := 0
	for _, row := range t.rows {
		total += len(row)
	}
	return total
}

// MeanHops returns a host table's average switch-hop count over all
// ordered host pairs; the paper notes up/down paths "are generally not
// shortest paths".
func (t *Table) MeanHops() float64 {
	n := len(t.Hosts)
	if n < 2 {
		return 0
	}
	return float64(t.Hops()) / float64(n*(n-1))
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
		c := r.classOf(h.Switch, h.Port)
		if c&portDead != 0 {
			return fmt.Errorf("hop %d: port %d of switch %d crosses a failed link", h.Index, h.Port, h.Switch)
		}
		if c&portHop == 0 {
			return nil // the host hop
		}
		up := c&portUp != 0
		if goneDown && up {
			return fmt.Errorf("hop %d: illegal down->up transition at switch %d", h.Index, h.Switch)
		}
		goneDown = goneDown || !up
		return nil
	})
}

// Package topology models the physical layout of a wormhole-routing LAN:
// crossbar switches, host adapters, and the point-to-point links between
// them.
//
// A Graph is a set of nodes (switches and hosts) whose ports are wired
// together by full-duplex links.  Port numbering matters: Myrinet source
// routes are sequences of switch *output port numbers* (Section 2 of the
// paper), so every builder in this package assigns ports deterministically
// and the same topology always yields the same routes.
//
// Hosts are modelled as single-port nodes attached to a switch; the host
// adapter logic itself lives in internal/adapter and internal/emu.
package topology

import (
	"fmt"
	"slices"
	"strings"
)

// NodeID identifies a node (switch or host) within a Graph.
type NodeID int

// None is the invalid node ID.
const None NodeID = -1

// PortID identifies a port on a particular node.  Ports double as crossbar
// input and output indices: port p of a switch names both the input channel
// and the output channel of the attached full-duplex link.
type PortID int

// NoPort is the invalid port ID.
const NoPort PortID = -1

// Kind distinguishes crossbar switches from host adapters.
type Kind uint8

// Node kinds.
const (
	Switch Kind = iota
	Host
)

// String returns "switch" or "host".
func (k Kind) String() string {
	switch k {
	case Switch:
		return "switch"
	case Host:
		return "host"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Port describes one side of a full-duplex link.
type Port struct {
	// Peer is the node on the other end of the cable, or None if the port
	// is unwired.
	Peer NodeID
	// PeerPort is the port index on the peer node.
	PeerPort PortID
	// Delay is the one-way propagation delay of the cable in byte-times.
	Delay int64
}

// Wired reports whether the port has a cable attached.
func (p Port) Wired() bool { return p.Peer != None }

// Node is a switch or host adapter.
type Node struct {
	ID    NodeID
	Kind  Kind
	Name  string
	Ports []Port
}

// Degree returns the number of wired ports.
func (n *Node) Degree() int {
	d := 0
	for _, p := range n.Ports {
		if p.Wired() {
			d++
		}
	}
	return d
}

// Graph is a wormhole LAN topology.
type Graph struct {
	Nodes []Node
	// DefaultDelay is applied by Connect when the delay argument is zero
	// and by builders unless they override it per link.
	DefaultDelay int64

	// hosts and switches list the node IDs of each kind in ascending
	// order; AddNode, the one place a node is made, appends to them.
	hosts, switches []NodeID
}

// New returns an empty graph with a default link delay of 1 byte-time.
func New() *Graph { return &Graph{DefaultDelay: 1} }

// AddNode appends a node of the given kind and returns its ID.
func (g *Graph) AddNode(kind Kind, name string) NodeID {
	id := NodeID(len(g.Nodes))
	if name == "" {
		name = fmt.Sprintf("%s%d", kind, int(id))
	}
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Name: name})
	switch kind {
	case Host:
		g.hosts = append(g.hosts, id)
	case Switch:
		g.switches = append(g.switches, id)
	}
	return id
}

// AddSwitch appends a switch node.
func (g *Graph) AddSwitch(name string) NodeID { return g.AddNode(Switch, name) }

// AddHost appends a host node.
func (g *Graph) AddHost(name string) NodeID { return g.AddNode(Host, name) }

// Node returns the node with the given ID.  It panics on an invalid ID.
func (g *Graph) Node(id NodeID) *Node { return &g.Nodes[id] }

// Connect wires a new full-duplex link between nodes a and b with the given
// one-way propagation delay in byte-times (0 means the graph default).
// It allocates the next free port index on each node and returns them.
func (g *Graph) Connect(a, b NodeID, delay int64) (pa, pb PortID) {
	if delay == 0 {
		delay = g.DefaultDelay
	}
	if delay <= 0 {
		panic(fmt.Sprintf("topology: non-positive delay %d", delay))
	}
	if a == b {
		panic(fmt.Sprintf("topology: self-link on node %d", a))
	}
	na, nb := &g.Nodes[a], &g.Nodes[b]
	pa = PortID(len(na.Ports))
	pb = PortID(len(nb.Ports))
	na.Ports = append(na.Ports, Port{Peer: b, PeerPort: pb, Delay: delay})
	nb.Ports = append(nb.Ports, Port{Peer: a, PeerPort: pa, Delay: delay})
	return pa, pb
}

// Hosts returns the IDs of all host nodes in ascending order.  The slice is
// the graph's own list, capped so an append copies: read it, and clone it
// before sorting, shuffling or writing through it.
func (g *Graph) Hosts() []NodeID { return g.hosts[:len(g.hosts):len(g.hosts)] }

// Switches returns the IDs of all switch nodes in ascending order, on the
// same terms as Hosts.
func (g *Graph) Switches() []NodeID { return g.switches[:len(g.switches):len(g.switches)] }

// HostAttachment returns the switch a host is wired to and the switch-side
// port.  It returns (None, NoPort) for an unwired host and panics if the ID
// does not name a host.
func (g *Graph) HostAttachment(h NodeID) (sw NodeID, swPort PortID) {
	n := g.Node(h)
	if n.Kind != Host {
		panic(fmt.Sprintf("topology: node %d is a %s, not a host", h, n.Kind))
	}
	for _, p := range n.Ports {
		if p.Wired() {
			return p.Peer, p.PeerPort
		}
	}
	return None, NoPort
}

// Validate checks structural invariants: every port's peer points back,
// delays are positive, hosts have exactly one wired port attached to a
// switch, and the graph is connected.  It returns a descriptive error for
// the first violation found.
func (g *Graph) Validate() error {
	for i := range g.Nodes {
		n := &g.Nodes[i]
		wired := 0
		for pi, p := range n.Ports {
			if !p.Wired() {
				continue
			}
			wired++
			if p.Delay <= 0 {
				return fmt.Errorf("node %d port %d: non-positive delay %d", i, pi, p.Delay)
			}
			if int(p.Peer) >= len(g.Nodes) || p.Peer < 0 {
				return fmt.Errorf("node %d port %d: peer %d out of range", i, pi, p.Peer)
			}
			peer := &g.Nodes[p.Peer]
			if int(p.PeerPort) >= len(peer.Ports) {
				return fmt.Errorf("node %d port %d: peer port %d out of range", i, pi, p.PeerPort)
			}
			back := peer.Ports[p.PeerPort]
			if back.Peer != n.ID || back.PeerPort != PortID(pi) {
				return fmt.Errorf("node %d port %d: asymmetric wiring", i, pi)
			}
			if back.Delay != p.Delay {
				return fmt.Errorf("node %d port %d: asymmetric delay", i, pi)
			}
		}
		if n.Kind == Host {
			if wired != 1 {
				return fmt.Errorf("host %d has %d wired ports, want 1", i, wired)
			}
			if g.Nodes[n.Ports[0].Peer].Kind != Switch {
				return fmt.Errorf("host %d attached to non-switch node %d", i, n.Ports[0].Peer)
			}
		}
	}
	// Hosts are leaves on switches (checked above), so the graph is
	// connected when its first switch reaches every other one.
	if first := slices.IndexFunc(g.Nodes, func(n Node) bool { return n.Kind == Switch }); first >= 0 {
		var row HopRow
		row.Live(g, NodeID(first), nil)
		for i, d := range row.Dist {
			if d < 0 && g.Nodes[i].Kind == Switch {
				return fmt.Errorf("graph is disconnected: switch %d unreachable from switch %d", i, first)
			}
		}
	}
	return nil
}

// Dead is the failure view a live search honours.  *updown.Failures
// implements it, nil-safe.
type Dead interface {
	// SwitchDead reports whether switch n has crashed.
	SwitchDead(n NodeID) bool
	// LinkDead reports whether the cable out of port p of node n is
	// unusable, a cable touching a crashed switch included.
	LinkDead(g *Graph, n NodeID, p PortID) bool
}

// HopRow is the one breadth-first search of the switch graph: the minimum
// number of switch-to-switch link traversals from one source switch to
// every switch.  It is both the spanning-tree search of the up*/down*
// labelling (Section 2: the tree is grown breadth-first from the root, and
// a switch's level is its row distance) and the edge metric of the
// host-connectivity graph used to weigh Hamiltonian circuits and trees
// (Section 5, Figure 8).  Links are full-duplex, so the metric is
// symmetric.  The queue is FIFO and each switch's ports are scanned in
// ascending order, so labels and tables built on a row are deterministic.
// A HopRow is a reusable buffer: filling it again for the next source
// allocates nothing once it has room for the graph.
type HopRow struct {
	// Dist[n] is switch n's distance from the source; -1 for hosts and
	// for switches the search did not reach.
	Dist []int
	// Order lists the reached switches in the order the search dequeued
	// them, the source first.
	Order []NodeID

	g *Graph
}

// From fills r with the distances from host a's attachment switch over the
// whole graph.
func (r *HopRow) From(g *Graph, a NodeID) {
	sw, _ := g.HostAttachment(a)
	r.Live(g, sw, nil)
}

// Live fills r with the distances from switch src over the switches and
// cables dead leaves alive (a nil dead is a healthy graph).  A src that is
// None or dead reaches nothing.
func (r *HopRow) Live(g *Graph, src NodeID, dead Dead) {
	n := len(g.Nodes)
	dist := slices.Grow(r.Dist[:0], n)[:n]
	for i := range dist {
		dist[i] = -1
	}
	r.g, r.Dist, r.Order = g, dist, r.Order[:0]
	if src == None || dead != nil && dead.SwitchDead(src) {
		return
	}
	dist[src] = 0
	queue := append(slices.Grow(r.Order, n), src)
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		ports := g.Nodes[u].Ports
		for pi := range ports {
			v := ports[pi].Peer
			if v == None || dist[v] >= 0 || g.Nodes[v].Kind != Switch {
				continue
			}
			if dead != nil && dead.LinkDead(g, u, PortID(pi)) {
				continue
			}
			dist[v] = dist[u] + 1
			queue = append(queue, v)
		}
	}
	r.Order = queue
}

// To returns the switch hops from the row's source to host b (0 if b sits
// on the source switch; -1 if b is unwired or unreachable).
func (r *HopRow) To(b NodeID) int {
	sb, _ := r.g.HostAttachment(b)
	if sb == None {
		return -1
	}
	return r.Dist[sb]
}

// DOT renders the topology in Graphviz DOT format, for inspection with
// cmd/topoview.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("graph wormlan {\n")
	for i := range g.Nodes {
		n := &g.Nodes[i]
		shape := "box"
		if n.Kind == Host {
			shape = "ellipse"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", i, n.Name, shape)
	}
	type edge struct{ a, b NodeID }
	seen := map[edge]bool{}
	for i := range g.Nodes {
		for _, p := range g.Nodes[i].Ports {
			if !p.Wired() {
				continue
			}
			a, bid := NodeID(i), p.Peer
			if a > bid {
				a, bid = bid, a
			}
			e := edge{a, bid}
			if seen[e] {
				continue
			}
			seen[e] = true
			fmt.Fprintf(&b, "  n%d -- n%d [label=\"%d\"];\n", e.a, e.b, p.Delay)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Stats summarizes a topology for logging.
type Stats struct {
	Switches, Hosts, Links int
	MaxSwitchDegree        int
	Diameter               int // in link hops over all nodes
}

// Summary computes Stats for the graph.
func (g *Graph) Summary() Stats {
	var s Stats
	links := 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch n.Kind {
		case Switch:
			s.Switches++
			if d := n.Degree(); d > s.MaxSwitchDegree {
				s.MaxSwitchDegree = d
			}
		case Host:
			s.Hosts++
		}
		links += n.Degree()
	}
	s.Links = links / 2
	// Hosts are leaves, so a host adds one hop at its end of a path: the
	// widest pair of nodes is two switches' row distance plus one hop for
	// each end with a host on it (two hosts on one switch are 2 apart).
	onSwitch := make([]int, len(g.Nodes))
	for i := range g.Nodes {
		if g.Nodes[i].Kind == Host {
			if sw, _ := g.HostAttachment(NodeID(i)); sw != None {
				onSwitch[sw]++
			}
		}
	}
	var row HopRow
	for a := range g.Nodes {
		if g.Nodes[a].Kind != Switch {
			continue
		}
		row.Live(g, NodeID(a), nil)
		for b, d := range row.Dist {
			switch {
			case d < 0:
				continue
			case a == b:
				d = min(onSwitch[a], 2)
			default:
				d += min(onSwitch[a], 1) + min(onSwitch[b], 1)
			}
			s.Diameter = max(s.Diameter, d)
		}
	}
	return s
}

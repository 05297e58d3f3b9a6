package updown

import (
	"fmt"

	"wormlan/internal/topology"
)

// Edge identifies one side of a full-duplex cable by the node and port it
// leaves from.  A failure of either side kills the whole cable.
type Edge struct {
	Node topology.NodeID
	Port topology.PortID
}

// Failures is the set of dead cables and dead switches a routing must
// avoid — the surviving-subgraph input to WithoutEdges.
// A nil *Failures means a healthy fabric everywhere it is accepted.
type Failures struct {
	// Links holds the failed cables; FailLink records both directed sides
	// so lookups need no peer resolution.
	Links map[Edge]bool
	// Switches holds crashed switches; every cable touching a crashed
	// switch is implicitly dead.
	Switches map[topology.NodeID]bool
}

// NewFailures returns an empty failure set.
func NewFailures() *Failures {
	return &Failures{
		Links:    make(map[Edge]bool),
		Switches: make(map[topology.NodeID]bool),
	}
}

// FailLink records the cable out of port p of node n (both sides) as dead.
func (f *Failures) FailLink(g *topology.Graph, n topology.NodeID, p topology.PortID) {
	port := g.Node(n).Ports[p]
	if !port.Wired() {
		panic(fmt.Sprintf("updown: failing unwired port %d of node %d", p, n))
	}
	f.Links[Edge{n, p}] = true
	f.Links[Edge{port.Peer, port.PeerPort}] = true
}

// FailSwitch records switch n as crashed.
func (f *Failures) FailSwitch(n topology.NodeID) { f.Switches[n] = true }

// SwitchDead reports whether switch n has crashed.
func (f *Failures) SwitchDead(n topology.NodeID) bool {
	return f != nil && f.Switches[n]
}

// LinkDead reports whether the cable out of port p of node n is unusable:
// explicitly failed, or touching a crashed switch on either end.
func (f *Failures) LinkDead(g *topology.Graph, n topology.NodeID, p topology.PortID) bool {
	if f == nil {
		return false
	}
	if f.Links[Edge{n, p}] {
		return true
	}
	node := g.Node(n)
	if node.Kind == topology.Switch && f.Switches[n] {
		return true
	}
	peer := node.Ports[p].Peer
	return g.Node(peer).Kind == topology.Switch && f.Switches[peer]
}

// Clone returns an independent copy of the set (nil clones to an empty set).
func (f *Failures) Clone() *Failures {
	out := NewFailures()
	if f == nil {
		return out
	}
	//wormlint:ordered set copied into a set; insertion order is invisible
	for e := range f.Links {
		out.Links[e] = true
	}
	//wormlint:ordered set copied into a set; insertion order is invisible
	for s := range f.Switches {
		out.Switches[s] = true
	}
	return out
}

// WithoutEdges computes the up/down labelling of the surviving subgraph of
// g: its spanning tree is the topology.HopRow search from the root, which
// never crosses dead links or enters dead switches.  If root is
// topology.None the lowest-numbered live switch is used — the root rule of
// every remap, and the one the distributed mapper (internal/mapper)
// converges to.  A live switch the search never reaches is cut off from
// the root: it joins the routing's own failure set, so it keeps Level -1,
// the hosts behind it are reported unreachable by Reachable, and routing to
// them fails rather than mis-delivering.  fail itself is never modified or
// retained.
func WithoutEdges(g *topology.Graph, root topology.NodeID, fail *Failures) (*Routing, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("updown: invalid topology: %w", err)
	}
	var live []topology.NodeID
	for _, sw := range g.Switches() {
		if !fail.SwitchDead(sw) {
			live = append(live, sw)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("updown: no surviving switches")
	}
	if root == topology.None {
		root = live[0]
	}
	if g.Node(root).Kind != topology.Switch {
		return nil, fmt.Errorf("updown: root %d is not a switch", root)
	}
	if fail.SwitchDead(root) {
		return nil, fmt.Errorf("updown: root switch %d is dead", root)
	}
	var row topology.HopRow
	row.Live(g, root, fail)
	r := &Routing{G: g, Root: root, Level: row.Dist}
	if fail != nil {
		r.fail = fail.Clone()
	}
	// g is connected (Validate), so only a non-nil fail can strand a switch.
	for _, sw := range live {
		if r.Level[sw] < 0 {
			r.fail.FailSwitch(sw)
		}
	}
	r.label(row.Order)
	return r, nil
}

// label fixes the class of every port from the levels, node IDs and the
// failure set, then replays the search in its dequeue order to find each
// switch's parent — the first switch one level up with a live cable to it,
// by that switch's lowest such port: the one that discovered it — marking
// the parent cable's two ends in the tree.
func (r *Routing) label(order []topology.NodeID) {
	g := r.G
	r.at = make([]int32, len(g.Nodes)+1)
	for n := range g.Nodes {
		r.at[n+1] = r.at[n] + int32(len(g.Nodes[n].Ports))
	}
	r.class = make([]portClass, r.at[len(g.Nodes)])
	r.ParentPort = make([]topology.PortID, len(g.Nodes))
	for n := range g.Nodes {
		u := topology.NodeID(n)
		r.ParentPort[n] = topology.NoPort
		for pi, p := range g.Nodes[n].Ports {
			if !p.Wired() {
				continue
			}
			c := &r.class[int(r.at[n])+pi]
			fabric := g.Nodes[n].Kind == topology.Switch && g.Node(p.Peer).Kind == topology.Switch
			switch {
			case r.fail.LinkDead(g, u, topology.PortID(pi)):
				*c = portDead
			case fabric:
				*c = portHop
			default: // a live host cable
				*c = portTree
			}
			if lu, lv := r.Level[n], r.Level[p.Peer]; fabric && (lv < lu || lv == lu && p.Peer < u) {
				*c |= portUp
			}
		}
	}
	for _, u := range order {
		for pi, p := range g.Nodes[u].Ports {
			v := p.Peer
			if r.classOf(u, topology.PortID(pi))&portHop == 0 || r.Level[v] != r.Level[u]+1 || r.ParentPort[v] != topology.NoPort {
				continue
			}
			r.ParentPort[v] = p.PeerPort
			r.class[int(r.at[u])+pi] |= portTree
			r.class[int(r.at[v])+int(p.PeerPort)] |= portTree
		}
	}
}

// Failures returns the failure set the routing was computed against (nil
// for a healthy-fabric routing from New).
func (r *Routing) Failures() *Failures { return r.fail }

// Reachable reports whether host h can be routed to under this labelling:
// its attachment switch survives in the root's component and its host link
// is alive.
func (r *Routing) Reachable(h topology.NodeID) bool {
	if r.G.Node(h).Kind != topology.Host {
		return false
	}
	sw, swPort := r.G.HostAttachment(h)
	if sw == topology.None || r.Level[sw] < 0 {
		return false
	}
	return !r.fail.LinkDead(r.G, sw, swPort)
}

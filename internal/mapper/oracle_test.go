// Package mapper simulates the distributed "mapping" algorithm that
// Autonet [SBB+91] and Myrinet run in the background to compute the
// up/down spanning tree (Section 2 of the paper: "the 'up'/'down' state of
// a link is relative to a spanning tree computed in the background by a
// distributed algorithm").
//
// The algorithm is an asynchronous distributed breadth-first search with
// root election: every switch initially claims to be the root; switches
// exchange (root, distance) claims with their neighbours over the real
// link delays; a switch adopts a claim that names a lower root ID, or the
// same root at a shorter distance, and re-propagates.  The protocol
// converges to a spanning tree rooted at the lowest-numbered switch, also
// over the survivors of link and switch failures — the scenario the paper
// raises when it calls crosslinks "back-ups in case of failure".
//
// No simulation path runs it: fault recovery labels the survivors with
// updown.WithoutEdges alone.  The package is all test files, so nothing
// outside it can import it; it is the independent oracle its tests check
// that labelling against.
package mapper

import (
	"fmt"

	"wormlan/internal/des"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// claim is one mapping message: "my best known root is Root, and I sit
// Dist hops from it".
type claim struct {
	Root topology.NodeID
	Dist int
}

// better reports whether c should replace cur.
func (c claim) better(cur claim) bool {
	if c.Root != cur.Root {
		return c.Root < cur.Root
	}
	return c.Dist < cur.Dist
}

// Result is the converged map.
type Result struct {
	Root   topology.NodeID
	Parent []topology.NodeID // per node; None for the root and for hosts
	Level  []int             // per node; -1 for hosts

	// Messages is the total number of claims exchanged; ConvergedAt is
	// the simulation time of the last state change.
	Messages    int
	ConvergedAt des.Time

	// Unmapped lists live switches partitioned away from the elected
	// root's component (RunSurviving only; each entry carries the root its
	// component converged to).  Their Level stays -1.
	Unmapped []Stranded
}

// Stranded is a live switch cut off from the elected root.
type Stranded struct {
	Switch topology.NodeID
	Root   topology.NodeID
}

// node is the per-switch protocol state.
type node struct {
	id     topology.NodeID
	best   claim
	parent topology.NodeID
	pport  topology.PortID // port toward parent
}

// Run executes the mapping protocol on a fresh kernel over the switches of
// g, treating links in failed as unusable (both directions fail together;
// passing either direction suffices).  It returns an error if the
// surviving topology is disconnected.
func Run(g *topology.Graph, failed map[updown.Edge]bool) (*Result, error) {
	res, err := RunSurviving(g, failed, nil)
	if err != nil {
		return nil, err
	}
	if len(res.Unmapped) > 0 {
		return nil, fmt.Errorf("mapper: switch %d converged to root %d, not %d (disconnected?)",
			res.Unmapped[0].Switch, res.Unmapped[0].Root, res.Root)
	}
	return res, nil
}

// RunSurviving runs the mapping protocol over the surviving subgraph:
// switches in deadSwitch neither claim nor relay (a crashed switch is
// silent on every port), and failed links carry no claims.  Unlike Run it
// tolerates partitions — the returned map is rooted in the component of
// the lowest-numbered live switch, and live switches stranded in other
// components are reported in Result.Unmapped with Level -1 rather than
// failing the whole mapping.
func RunSurviving(g *topology.Graph, failed map[updown.Edge]bool,
	deadSwitch map[topology.NodeID]bool) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("mapper: %w", err)
	}
	k := des.NewKernel()
	res := &Result{
		Parent: make([]topology.NodeID, len(g.Nodes)),
		Level:  make([]int, len(g.Nodes)),
	}
	nodes := make([]*node, len(g.Nodes))
	for i := range g.Nodes {
		res.Parent[i] = topology.None
		res.Level[i] = -1
		if g.Nodes[i].Kind == topology.Switch && !deadSwitch[topology.NodeID(i)] {
			nodes[i] = &node{
				id:     topology.NodeID(i),
				best:   claim{Root: topology.NodeID(i), Dist: 0},
				parent: topology.None,
				pport:  topology.NoPort,
			}
		}
	}
	linkDown := func(n topology.NodeID, p topology.PortID) bool {
		if failed == nil {
			return false
		}
		if failed[updown.Edge{Node: n, Port: p}] {
			return true
		}
		peer := g.Node(n).Ports[p]
		return failed[updown.Edge{Node: peer.Peer, Port: peer.PeerPort}]
	}

	// send schedules delivery of a claim across a link after its delay.
	var deliver func(to topology.NodeID, viaPort topology.PortID, c claim)
	send := func(from *node) {
		for pi, p := range g.Node(from.id).Ports {
			if !p.Wired() || g.Node(p.Peer).Kind != topology.Switch {
				continue
			}
			if nodes[p.Peer] == nil { // crashed switch: claims fall on deaf ears
				continue
			}
			if linkDown(from.id, topology.PortID(pi)) {
				continue
			}
			res.Messages++
			peer, peerPort := p.Peer, p.PeerPort
			c := claim{Root: from.best.Root, Dist: from.best.Dist + 1}
			k.After(p.Delay, func() { deliver(peer, peerPort, c) })
		}
	}
	deliver = func(to topology.NodeID, viaPort topology.PortID, c claim) {
		n := nodes[to]
		if !c.better(n.best) {
			return
		}
		n.best = c
		n.parent = g.Node(to).Ports[viaPort].Peer
		n.pport = viaPort
		res.ConvergedAt = k.Now()
		send(n)
	}

	// Kick off: everyone announces its own claim.
	for _, n := range nodes {
		if n != nil {
			send(n)
		}
	}
	if err := k.Run(0); err != nil {
		return nil, err
	}

	// Extract and validate the converged tree.
	root := topology.None
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if root == topology.None || n.best.Root < root {
			root = n.best.Root
		}
	}
	if root == topology.None {
		return nil, fmt.Errorf("mapper: no surviving switches")
	}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if n.best.Root != root {
			// A live switch in another partition: mappable locally but cut
			// off from the elected root.  Leave it at Level -1.
			res.Unmapped = append(res.Unmapped, Stranded{Switch: n.id, Root: n.best.Root})
			continue
		}
		res.Parent[n.id] = n.parent
		res.Level[n.id] = n.best.Dist
	}
	res.Root = root
	return res, nil
}

// Verify checks the structural invariants of the converged map: a single
// root at level 0, every other switch with a parent one level up across a
// live link.
func (r *Result) Verify(g *topology.Graph, failed map[updown.Edge]bool) error {
	if r.Level[r.Root] != 0 || r.Parent[r.Root] != topology.None {
		return fmt.Errorf("mapper: root %d has level %d / parent %d",
			r.Root, r.Level[r.Root], r.Parent[r.Root])
	}
	for _, sw := range g.Switches() {
		if sw == r.Root {
			continue
		}
		if r.Level[sw] < 0 {
			continue // dead or stranded switch: not part of this map
		}
		p := r.Parent[sw]
		if p == topology.None {
			return fmt.Errorf("mapper: switch %d has no parent", sw)
		}
		if r.Level[sw] != r.Level[p]+1 {
			return fmt.Errorf("mapper: switch %d level %d, parent %d level %d",
				sw, r.Level[sw], p, r.Level[p])
		}
		wired := false
		for pi, port := range g.Node(sw).Ports {
			if port.Wired() && port.Peer == p {
				if failed == nil || (!failed[updown.Edge{Node: sw, Port: topology.PortID(pi)}] &&
					!failed[updown.Edge{Node: p, Port: port.PeerPort}]) {
					wired = true
				}
			}
		}
		if !wired {
			return fmt.Errorf("mapper: switch %d's parent %d not reachable over a live link", sw, p)
		}
	}
	return nil
}

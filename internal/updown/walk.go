package updown

import (
	"slices"

	"wormlan/internal/topology"
)

// Walk is the one breadth-first search behind every up*/down* route: a
// single pass over (switch, phase) states from one start switch, run to
// exhaustion, from which the shortest legal route to any host is read off
// by following the discovery chain back from the host's switch.  Ports are
// scanned in index order and the queue is FIFO, so a search that stops at
// one destination is a strict prefix of this one: it would return exactly
// the first-discovered state and chain.  A table costs one walk per source
// switch, not one search per host pair.
type Walk struct {
	r     *Routing
	start topology.NodeID // None until run

	// Indexed by state = 2*node + phase; phase 1 means the walk has taken a
	// 'down' link and may no longer go up.
	prev  []walkHop // the hop that discovered the state
	depth []int32   // switch hops from start; -1 = never discovered
	// first[n] is the state switch n was first discovered in; -1 = never.
	first []int32
	queue []int32
}

// walkHop is one discovery edge: the predecessor state and the port taken
// out of its switch.
type walkHop struct {
	from int32
	port topology.PortID
}

// newWalk allocates scratch sized to the graph, for any number of runs.
func (r *Routing) newWalk() *Walk {
	n := len(r.G.Nodes)
	return &Walk{
		r:     r,
		start: topology.None,
		prev:  make([]walkHop, 2*n),
		depth: make([]int32, 2*n),
		first: make([]int32, n),
		queue: make([]int32, 0, 2*n),
	}
}

// Escapes returns the escape routes of adaptive routing, one row per switch
// in g.Switches() order: the up*/down* route from that switch to every
// reachable host attached elsewhere, Src being the switch.  A worm that
// wandered off the up/down order on the adaptive lanes re-enters it where
// it bails out, in the up phase as a freshly injected worm would; since
// every escape-resident worm then holds and waits only on lane-0 channels
// of one legal walk, the union of waits stays acyclic, which Prove over
// these rows checks.  A switch outside the routed component has an empty
// row.  One Walk serves every switch, and each switch's routes are cut
// from one port chunk sized from the walk's depths.
func (r *Routing) Escapes() [][]Route {
	g := r.G
	sws, hosts := g.Switches(), g.Hosts()
	reach := make([]bool, len(hosts))
	for i, h := range hosts {
		reach[i] = r.Reachable(h)
	}
	rows := make([][]Route, len(sws))
	flat := make([]Route, 0, len(sws)*len(hosts))
	w := r.newWalk()
	for i, sw := range sws {
		if r.Level[sw] < 0 {
			continue // cut off from the root: worms here drop
		}
		w.run(sw, false)
		size := 0
		for j, h := range hosts {
			if at, _ := g.HostAttachment(h); reach[j] && at != sw {
				size += w.hops(h)
			}
		}
		ports, from := make([]topology.PortID, 0, size), len(flat)
		for j, h := range hosts {
			if at, _ := g.HostAttachment(h); !reach[j] || at == sw {
				continue // the attach switch delivers
			}
			a := len(ports)
			var ok bool
			if ports, ok = w.to(ports, h); ok {
				flat = append(flat, Route{Src: sw, Dst: h, Ports: ports[a:len(ports):len(ports)]})
			}
		}
		rows[i] = flat[from:len(flat):len(flat)]
	}
	return rows
}

// run searches from start, replacing whatever the walk held before.
func (w *Walk) run(start topology.NodeID, treeOnly bool) {
	r, g := w.r, w.r.G
	w.start = start
	for i := range w.depth {
		w.depth[i] = -1
	}
	for i := range w.first {
		w.first[i] = -1
	}
	origin := int32(start) * 2
	w.depth[origin] = 0
	w.first[start] = origin
	w.queue = append(w.queue[:0], origin)
	for qi := 0; qi < len(w.queue); qi++ {
		cur := w.queue[qi]
		node, down := topology.NodeID(cur>>1), cur&1 == 1
		for pi, p := range g.Node(node).Ports {
			port := topology.PortID(pi)
			if !p.Wired() || g.Node(p.Peer).Kind != topology.Switch {
				continue
			}
			if treeOnly && !r.inTree[node][pi] {
				continue
			}
			if r.fail.LinkDead(g, node, port) {
				continue
			}
			up := r.IsUp(node, port)
			if down && up {
				continue // down->up transition is illegal
			}
			next := int32(p.Peer) * 2
			if down || !up {
				next++
			}
			if w.depth[next] >= 0 {
				continue
			}
			w.depth[next] = w.depth[cur] + 1
			w.prev[next] = walkHop{from: cur, port: port}
			if w.first[p.Peer] < 0 {
				w.first[p.Peer] = next
			}
			w.queue = append(w.queue, next)
		}
	}
}

// hops returns the length of the route to host dst: 0 when the walk never
// reached dst's switch.
func (w *Walk) hops(dst topology.NodeID) int {
	sDst, _ := w.r.G.HostAttachment(dst)
	if goal := w.first[sDst]; goal >= 0 {
		return int(w.depth[goal]) + 1
	}
	return 0
}

// to appends the route to host dst to ports: the chain behind the
// first-discovered state of dst's switch, then the host hop.  ok is false,
// and ports unchanged, when the walk never reached dst's switch.
func (w *Walk) to(ports []topology.PortID, dst topology.NodeID) (_ []topology.PortID, ok bool) {
	sDst, dstPort := w.r.G.HostAttachment(dst)
	goal := w.first[sDst]
	if goal < 0 {
		return ports, false
	}
	base, n := len(ports), int(w.depth[goal])+1
	ports = slices.Grow(ports, n)[:base+n]
	ports[base+n-1] = dstPort
	for s, i := goal, base+n-2; i >= base; i-- {
		h := w.prev[s]
		ports[i] = h.port
		s = h.from
	}
	return ports, true
}

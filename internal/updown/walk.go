package updown

import (
	"fmt"

	"wormlan/internal/topology"
)

// Walk is the one breadth-first search behind every up*/down* route: a
// single pass over (switch, phase) states from one start switch, run to
// exhaustion, from which the shortest legal route to any host is read off
// by following the discovery chain back from the host's switch.  Ports are
// scanned in index order and the queue is FIFO, so a search that stops at
// one destination is a strict prefix of this one: it would return exactly
// the first-discovered state and chain.  A table costs one walk per source
// switch, not one search per host pair.  Routes read off a Walk alias its
// slab: read them, never append to or write through them.
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
	slab  RouteSlab
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

// From walks from switch sw in the up phase, as a freshly injected worm
// would.  Adaptive routing reads its escape routes off the result: a worm
// that wandered off the up/down order on the adaptive lanes re-enters it at
// sw, and since every escape-resident worm then holds and waits only on
// lane-0 channels of one legal walk, the union of waits stays acyclic.
func (r *Routing) From(sw topology.NodeID) (*Walk, error) {
	if r.Level[sw] < 0 { // hosts and cut-off switches alike
		return nil, fmt.Errorf("updown: switch %d is not in the routed component", sw)
	}
	w := r.newWalk()
	w.run(sw, false)
	return w, nil
}

// To returns the route from the start switch to host dst, or false when dst
// is unreachable or no legal walk gets there.  Src is the start switch, so
// the Route must not be fed to VerifyRoute (which expects host endpoints).
func (w *Walk) To(dst topology.NodeID) (Route, bool) {
	if !w.r.Reachable(dst) {
		return Route{}, false
	}
	return w.to(dst)
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

// to reads off the route to host dst: the chain behind the first-discovered
// state of dst's switch, then the host hop.
func (w *Walk) to(dst topology.NodeID) (Route, bool) {
	sDst, dstPort := w.r.G.HostAttachment(dst)
	goal := w.first[sDst]
	if goal < 0 {
		return Route{}, false
	}
	n := int(w.depth[goal]) + 1
	ports, sws := w.slab.Take(n)
	ports[n-1], sws[n-1] = dstPort, sDst
	for s, i := goal, n-2; i >= 0; i-- {
		h := w.prev[s]
		ports[i], sws[i] = h.port, topology.NodeID(h.from>>1)
		s = h.from
	}
	return Route{Src: w.start, Dst: dst, Ports: ports, Switches: sws}, true
}

// RouteSlab carves Route.Ports/Route.Switches pairs out of shared backing
// arrays, so a table costs a handful of allocations instead of two per
// pair.  Every slice is capped at its own length, so a stray append copies
// rather than overwriting the neighbouring route.  The zero value is ready.
type RouteSlab struct {
	ports []topology.PortID
	sws   []topology.NodeID
}

// Take returns zeroed Ports and Switches slices of n hops each.
func (s *RouteSlab) Take(n int) ([]topology.PortID, []topology.NodeID) {
	if len(s.ports)+n > cap(s.ports) {
		// Earlier chunks stay alive through the routes cut from them.
		c := max(2*cap(s.ports), n, 1024)
		s.ports = make([]topology.PortID, 0, c)
		s.sws = make([]topology.NodeID, 0, c)
	}
	a, b := len(s.ports), len(s.ports)+n
	s.ports, s.sws = s.ports[:b], s.sws[:b]
	return s.ports[a:b:b], s.sws[a:b:b]
}

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

// run searches from start, replacing whatever the walk held before.
func (w *Walk) run(start topology.NodeID, treeOnly bool) {
	r := w.r
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
		ports := r.G.Nodes[node].Ports
		for pi, c := range r.class[r.at[node]:r.at[node+1]] {
			if c&portHop == 0 || treeOnly && c&portTree == 0 {
				continue
			}
			up := c&portUp != 0
			if down && up {
				continue // down->up transition is illegal
			}
			peer := ports[pi].Peer
			next := int32(peer) * 2
			if down || !up {
				next++
			}
			if w.depth[next] >= 0 {
				continue
			}
			w.depth[next] = w.depth[cur] + 1
			w.prev[next] = walkHop{from: cur, port: topology.PortID(pi)}
			if w.first[peer] < 0 {
				w.first[peer] = next
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

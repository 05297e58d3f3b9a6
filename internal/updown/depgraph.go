package updown

import (
	"fmt"
	"math/bits"
	"strings"

	"wormlan/internal/topology"
)

// Prove is the one deadlock proof [DS87]: an error unless the channel
// dependency graph of the table's routes, read in place, is acyclic.  The
// table is whatever a fabric routes by: a scheme's host table, or adaptive
// routing's escape routes (Routing.Escapes).  A channel is one lane of one
// switch output, (Switch, Port, Lane); a worm holding one hop's channel may
// wait on its next hop's.  Each route is followed by one Route.Walk, decode
// splitting its bytes into port and lane (nil: plain ports, lane 0).  Host
// injection channels, which no worm waits on, are left out, and so are
// one-hop routes, which hold nothing while they wait — among them the
// adaptive marker, whose hops the switches decide, so the proof is vacuous
// on an all-marker table and adaptive routing proves its escapes instead.
// A cycle's error names each of its channels.
func (t *Table) Prove(g *topology.Graph, decode func(topology.PortID) (topology.PortID, int)) error {
	start := routeCursor{t: t}
	lanes := 1
	for c := start; decode != nil; {
		rt, ok := c.next()
		if !ok {
			break
		}
		if len(rt.Ports) < 2 {
			continue
		}
		for _, b := range rt.Ports {
			_, l := decode(b)
			lanes = max(lanes, l+1)
		}
	}
	// Switch n owns channels base[n] + port*lanes + lane.  Every successor
	// of a channel sits on its peer switch, so each channel's successors are
	// a bitset over its peer's channels, found from peer[c] = base[peer].
	base := make([]int32, len(g.Nodes))
	nch, deg := 0, 0
	for n, node := range g.Nodes {
		base[n] = int32(nch)
		if node.Kind == topology.Switch {
			nch += len(node.Ports) * lanes
			deg = max(deg, len(node.Ports))
		}
	}
	words := (deg*lanes + 63) / 64
	succ := make([]uint64, nch*words)
	peer := make([]int32, nch)
	prev := int32(-1)
	visit := func(h Hop) error {
		k := int32(int(h.Port)*lanes + h.Lane)
		if prev >= 0 {
			succ[int(prev)*words+int(k/64)] |= 1 << (k % 64)
			peer[prev] = base[h.Switch]
		}
		prev = base[h.Switch] + k
		return nil
	}
	for c := start; ; {
		rt, ok := c.next()
		if !ok {
			break
		}
		if len(rt.Ports) < 2 {
			continue
		}
		prev = -1
		if err := rt.Walk(g, decode, visit); err != nil {
			return fmt.Errorf("updown: route %d->%d: %w", rt.Src, rt.Dst, err)
		}
	}

	// Iterative depth-first search in channel order: state 0 is unvisited,
	// 1 on the stack, 2 done; a successor still on the stack closes a cycle.
	state := make([]uint8, nch)
	stack := make([]frame, 0, nch)
	for root := range int32(nch) {
		if state[root] == 0 {
			state[root] = 1
			stack = append(stack, frame{c: root})
		}
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			k := nextBit(succ[int(top.c)*words:int(top.c+1)*words], int(top.next))
			if k < 0 {
				state[top.c] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			top.next = int32(k + 1)
			v := peer[top.c] + int32(k)
			if state[v] == 1 {
				return cycleErr(g, base, lanes, stack, v)
			}
			if state[v] == 0 {
				state[v] = 1
				stack = append(stack, frame{c: v})
			}
		}
	}
	return nil
}

// routeCursor steps through a table's routes in place, row-major, skipping
// the empty spans.
type routeCursor struct {
	t    *Table
	i, j int
}

// next returns the next route; ok is false past the last.
func (c *routeCursor) next() (Route, bool) {
	for t := c.t; c.i < len(t.Srcs); {
		i, j := c.i, c.j
		if c.j++; c.j == len(t.Hosts) {
			c.i, c.j = c.i+1, 0
		}
		if rt := t.route(i, j); len(rt.Ports) > 0 {
			return rt, true
		}
	}
	return Route{}, false
}

// frame is one channel on the search stack and the successor bit to try next.
type frame struct{ c, next int32 }

// nextBit returns the index of the first set bit of row at or after from,
// or -1 when there is none.
func nextBit(row []uint64, from int) int {
	for w := from / 64; w < len(row); w, from = w+1, 0 {
		if m := row[w] &^ (1<<(from%64) - 1); m != 0 {
			return w*64 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// cycleErr names the cycle that the edge from the top of stack back to v
// closes, each channel as switch/port/lane.
func cycleErr(g *topology.Graph, base []int32, lanes int, stack []frame, v int32) error {
	at := len(stack) - 1
	for stack[at].c != v {
		at--
	}
	hops := make([]string, 0, len(stack)-at+1)
	for _, f := range append(stack[at:], frame{c: v}) {
		n := len(g.Nodes) - 1 // the last switch whose channels start at or before f.c
		for g.Nodes[n].Kind != topology.Switch || base[n] > f.c {
			n--
		}
		off := int(f.c - base[n])
		hops = append(hops, fmt.Sprintf("%d/%d/%d", n, off/lanes, off%lanes))
	}
	return fmt.Errorf("updown: channel dependency cycle of %d channels (switch/port/lane): %s",
		len(stack)-at, strings.Join(hops, " -> "))
}

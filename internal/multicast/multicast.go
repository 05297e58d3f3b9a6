// Package multicast builds the predefined structures over which host-
// adapter multicasting operates (Sections 4-6 of the paper): the
// Hamiltonian circuit and the rooted tree, both formed on the complete
// host-connectivity graph whose edge weights are unicast path hop counts
// (Figure 8).
//
// Deadlock prevention shapes both structures:
//
//   - Circuit: members are ordered by increasing host ID; a multicast
//     starting at an arbitrary member ascends the ring, reverses exactly
//     once when it wraps past the highest ID, and switches from buffer
//     class 1 to buffer class 2 at the reversal (Figure 7).
//   - Rooted tree: the root is the lowest ID and children always have
//     higher IDs than their parent (Figure 9), so a root-started multicast
//     only ever propagates toward higher IDs and needs one buffer class.
//     The flood variant (start anywhere, forward to all tree neighbours
//     except the arrival link) climbs with class 1 and descends with
//     class 2.
package multicast

import (
	"fmt"
	"sort"

	"wormlan/internal/topology"
)

// Group is a multicast group: a set of member hosts.
type Group struct {
	ID      int
	Members []topology.NodeID // always sorted ascending
}

// NewGroup returns a group with the members sorted by ID.  Duplicate
// members are rejected.
func NewGroup(id int, members []topology.NodeID) (*Group, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("multicast: group %d needs at least 2 members", id)
	}
	ms := append([]topology.NodeID(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	for i := 1; i < len(ms); i++ {
		if ms[i] == ms[i-1] {
			return nil, fmt.Errorf("multicast: group %d has duplicate member %d", id, ms[i])
		}
	}
	return &Group{ID: id, Members: ms}, nil
}

// Contains reports whether h is a member.
func (g *Group) Contains(h topology.NodeID) bool {
	i := sort.Search(len(g.Members), func(i int) bool { return g.Members[i] >= h })
	return i < len(g.Members) && g.Members[i] == h
}

// Lowest returns the lowest-ID member (the serializer for total ordering
// and the root of the rooted tree).
func (g *Group) Lowest() topology.NodeID { return g.Members[0] }

// Circuit is a Hamiltonian circuit over the group members.
type Circuit struct {
	Group *Group
	// Order is the circuit visiting order starting at the lowest ID: the
	// group's members in ascending ID order.
	Order []topology.NodeID

	next map[topology.NodeID]topology.NodeID
}

// NewCircuitByID builds the paper's canonical circuit: members in
// ascending ID order, wrapping from highest back to lowest.  Exactly one
// ID reversal occurs per lap, so the two-buffer-class rule applies.
func NewCircuitByID(g *Group) *Circuit {
	order := append([]topology.NodeID(nil), g.Members...)
	c := &Circuit{Group: g, Order: order, next: make(map[topology.NodeID]topology.NodeID, len(order))}
	for i, h := range order {
		c.next[h] = order[(i+1)%len(order)]
	}
	return c
}

// Successor returns the next host on the circuit after h.
func (c *Circuit) Successor(h topology.NodeID) (topology.NodeID, error) {
	n, ok := c.next[h]
	if !ok {
		return topology.None, fmt.Errorf("multicast: host %d not in group %d", h, c.Group.ID)
	}
	return n, nil
}

// Len returns the number of members on the circuit.
func (c *Circuit) Len() int { return len(c.Order) }

// Tree is a rooted multicast tree over the group members, ID-ordered from
// the root down (every child has a higher ID than its parent).
type Tree struct {
	Group *Group
	Root  topology.NodeID

	parent   map[topology.NodeID]topology.NodeID
	children map[topology.NodeID][]topology.NodeID
}

// NewTreeByID builds a balanced arity-k tree over the ID-sorted members
// using the heap layout: the member at sorted position i has children at
// positions k*i+1 .. k*i+k.  Positions increase with IDs, so the child-ID
// rule holds by construction.
func NewTreeByID(g *Group, arity int) (*Tree, error) {
	if arity < 1 {
		return nil, fmt.Errorf("multicast: tree arity %d < 1", arity)
	}
	t := &Tree{Group: g, Root: g.Lowest(),
		parent:   make(map[topology.NodeID]topology.NodeID, len(g.Members)),
		children: make(map[topology.NodeID][]topology.NodeID, len(g.Members))}
	for i, h := range g.Members {
		for j := 1; j <= arity; j++ {
			ci := arity*i + j
			if ci >= len(g.Members) {
				break
			}
			child := g.Members[ci]
			t.children[h] = append(t.children[h], child)
			t.parent[child] = h
		}
	}
	t.parent[t.Root] = topology.None
	return t, nil
}

// NewTreeGreedy builds an ID-respecting tree that favours short unicast
// paths: members are inserted in ascending ID order, each attaching to the
// already-inserted node with the fewest switch hops that still has fewer
// than arity children.  Children necessarily have higher IDs than parents.
func NewTreeGreedy(topo *topology.Graph, g *Group, arity int) (*Tree, error) {
	if arity < 1 {
		return nil, fmt.Errorf("multicast: tree arity %d < 1", arity)
	}
	t := &Tree{Group: g, Root: g.Lowest(),
		parent:   make(map[topology.NodeID]topology.NodeID, len(g.Members)),
		children: make(map[topology.NodeID][]topology.NodeID, len(g.Members))}
	t.parent[t.Root] = topology.None
	placed := []topology.NodeID{t.Root}
	var row topology.HopRow
	for _, m := range g.Members[1:] {
		row.From(topo, m) // hops are symmetric: one row serves every candidate parent
		best := topology.None
		bestHops := 0
		for _, p := range placed {
			if len(t.children[p]) >= arity {
				continue
			}
			h := row.To(p)
			if best == topology.None || h < bestHops {
				best, bestHops = p, h
			}
		}
		if best == topology.None {
			return nil, fmt.Errorf("multicast: no eligible parent for %d (arity %d too small)", m, arity)
		}
		t.children[best] = append(t.children[best], m)
		t.parent[m] = best
		placed = append(placed, m)
	}
	return t, nil
}

// Children returns the children of h in the tree (nil for leaves).
func (t *Tree) Children(h topology.NodeID) []topology.NodeID { return t.children[h] }

// Parent returns the parent of h, or topology.None for the root.
func (t *Tree) Parent(h topology.NodeID) (topology.NodeID, error) {
	p, ok := t.parent[h]
	if !ok {
		return topology.None, fmt.Errorf("multicast: host %d not in group %d", h, t.Group.ID)
	}
	return p, nil
}

// Neighbours returns the tree-adjacent hosts of h (parent plus children),
// used by the flood variant.
func (t *Tree) Neighbours(h topology.NodeID) []topology.NodeID {
	var out []topology.NodeID
	if p := t.parent[h]; p != topology.None {
		out = append(out, p)
	}
	return append(out, t.children[h]...)
}

// Depth returns the maximum number of forwarding hops from the root.
func (t *Tree) Depth() int {
	var depth func(h topology.NodeID) int
	depth = func(h topology.NodeID) int {
		d := 0
		for _, c := range t.children[h] {
			if cd := 1 + depth(c); cd > d {
				d = cd
			}
		}
		return d
	}
	return depth(t.Root)
}

// Validate checks the structural invariants: every member present exactly
// once, child IDs above parent IDs, single root.
func (t *Tree) Validate() error {
	seen := map[topology.NodeID]bool{}
	var walk func(h topology.NodeID) error
	walk = func(h topology.NodeID) error {
		if seen[h] {
			return fmt.Errorf("multicast: host %d visited twice", h)
		}
		seen[h] = true
		for _, c := range t.children[h] {
			if c <= h {
				return fmt.Errorf("multicast: child %d not above parent %d", c, h)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.Root); err != nil {
		return err
	}
	if len(seen) != len(t.Group.Members) {
		return fmt.Errorf("multicast: tree covers %d of %d members", len(seen), len(t.Group.Members))
	}
	return nil
}

// WireHops returns the total switch-hop count of all tree edges; the paper
// notes the tree's average hop length per link is below the all-pairs
// average, which is why it achieves higher total throughput (Section 7.1).
func (t *Tree) WireHops(topo *topology.Graph) int {
	total := 0
	var row topology.HopRow
	// Iterate the (sorted) membership rather than the parent map: the sum
	// itself is order-insensitive, but member order keeps any future
	// instrumentation of this walk deterministic for free.
	for _, c := range t.Group.Members {
		p, err := t.Parent(c)
		if err != nil || p == topology.None {
			continue
		}
		row.From(topo, p)
		total += row.To(c)
	}
	return total
}

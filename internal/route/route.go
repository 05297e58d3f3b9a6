// Package route implements Myrinet-style source-route headers: unicast
// port-number lists and the linearized multicast tree encoding of Section 3
// (Figure 2) of the paper.
//
// # Unicast headers
//
// A unicast source route is a sequence of switch output-port bytes.  Each
// switch consumes the leading byte, uses it as the crossbar output port,
// and forwards the rest of the worm; the destination host adapter receives
// the worm with the header fully stripped.
//
// # Multicast headers
//
// A multicast route is a tree of port numbers.  To keep source routing, the
// tree is linearized by depth-first traversal.  The format used here is a
// regularized version of the paper's Figure 2 (the figure's byte layout is
// ambiguous about trailing markers; this one is self-delimiting):
//
//	header := branch* END
//	branch := PORT PTR sub
//	sub    := header | ε
//
// PORT is a switch output-port byte.  PTR is the byte distance from the PTR
// byte itself to the next branch's PORT byte (or to the END byte for the
// last branch), i.e. len(sub)+1, exactly the "byte count from the pointer
// location to the pointed-to location" of the paper.  sub is the complete
// header to stamp on the copy exiting PORT; it is empty when the port leads
// to a destination host, in which case the switch stamps a bare END byte
// (the host adapter recognizes a header consisting of END alone as local
// delivery).
//
// The switch's processing rule is the paper's, verbatim: "read the port
// number and pointer value; copy the bytes indicated by the pointer to that
// port, followed by an end-of-route marker; repeat until the end-of-route
// marker is read."
package route

import (
	"errors"
	"fmt"
	"sort"

	"wormlan/internal/topology"
)

// End is the end-of-route marker byte.
const End = 0xFF

// MaxPort is the largest encodable port number.  0xFF is the END marker;
// 0xFE is reserved for the broadcast pseudo-port (see Broadcast).
const MaxPort = 0xFD

// BroadcastPort is a pseudo-port instructing a switch to replicate the worm
// onto every 'down' link of the up/down spanning tree (the simplified
// broadcast header of Section 3: a unicast route to the root followed by
// this byte).
const BroadcastPort = 0xFE

// AdaptivePort is the route-anywhere marker used by Duato-style adaptive
// routing: a unicast worm whose header is the single byte AdaptivePort asks
// each switch to pick the output itself — an adaptive lane (VC >= 1) of any
// minimal productive port if one is free, otherwise the deadlock-free
// lane-0 escape route — and to re-stamp the marker on the forwarded copy.
//
// The byte value deliberately aliases MaxPort: it is only interpreted as a
// marker by fabrics with an adaptive table installed (network.SetAdaptive),
// where explicit route bytes never reach 0xFD; everywhere else it remains
// an ordinary encodable port number, so EncodeUnicast needs no special case.
const AdaptivePort = 0xFD

// Tree is a multicast routing tree rooted at the first switch the worm
// enters.  Branches are the output ports taken at that switch; a branch
// with a nil Sub delivers to whatever the port is wired to (a host).
type Tree struct {
	Branches []Branch
}

// Branch is one output port of a Tree node.
type Branch struct {
	Port topology.PortID
	Sub  *Tree // nil: leaf (host delivery)
}

// NumLeaves returns the number of host deliveries in the tree.
func (t *Tree) NumLeaves() int {
	n := 0
	for _, b := range t.Branches {
		if b.Sub == nil {
			n++
		} else {
			n += b.Sub.NumLeaves()
		}
	}
	return n
}

// Depth returns the maximum switch depth of the tree (1 for a tree whose
// branches are all leaves).
func (t *Tree) Depth() int {
	d := 0
	for _, b := range t.Branches {
		sub := 1
		if b.Sub != nil {
			sub = 1 + b.Sub.Depth()
		}
		if sub > d {
			d = sub
		}
	}
	return d
}

// Fanout returns the maximum number of branches at any node of the tree;
// this is the crossbar replication factor the switch fabric must support.
func (t *Tree) Fanout() int {
	f := len(t.Branches)
	for _, b := range t.Branches {
		if b.Sub != nil {
			if s := b.Sub.Fanout(); s > f {
				f = s
			}
		}
	}
	return f
}

// Encode linearizes the tree into a multicast header.
func Encode(t *Tree) ([]byte, error) {
	var out []byte
	var enc func(t *Tree) error
	enc = func(t *Tree) error {
		if len(t.Branches) == 0 {
			return errors.New("route: tree node with no branches")
		}
		for _, b := range t.Branches {
			if b.Port < 0 || b.Port > MaxPort {
				return fmt.Errorf("route: port %d not encodable", b.Port)
			}
			out = append(out, byte(b.Port))
			ptrIdx := len(out)
			out = append(out, 0) // patched below
			if b.Sub != nil {
				if err := enc(b.Sub); err != nil {
					return err
				}
			}
			subLen := len(out) - ptrIdx - 1
			if subLen+1 > 0xFF {
				return fmt.Errorf("route: subtree of %d bytes overflows one-byte pointer", subLen)
			}
			out[ptrIdx] = byte(subLen + 1)
		}
		out = append(out, End)
		return nil
	}
	if err := enc(t); err != nil {
		return nil, err
	}
	return out, nil
}

// Split is one replication decision made by a switch processing a
// multicast header: send a copy out Port carrying Header.
type Split struct {
	Port   topology.PortID
	Header []byte
}

// SplitHeader performs the switch's processing of a multicast header: it
// returns the copies to emit, one per branch, each with the header to stamp
// on the exiting worm (a complete sub-header, or a bare END for host
// delivery).  The input must be a complete well-formed header.
func SplitHeader(h []byte) ([]Split, error) {
	var out []Split
	i := 0
	for {
		if i >= len(h) {
			return nil, errors.New("route: truncated multicast header")
		}
		if h[i] == End {
			if i != len(h)-1 {
				return nil, fmt.Errorf("route: %d trailing bytes after END", len(h)-1-i)
			}
			return out, nil
		}
		port := h[i]
		if port == BroadcastPort {
			return nil, errors.New("route: broadcast pseudo-port inside multicast header")
		}
		i++
		if i >= len(h) {
			return nil, errors.New("route: header ends after port byte")
		}
		ptr := int(h[i])
		if ptr < 1 {
			return nil, errors.New("route: zero pointer")
		}
		subStart := i + 1
		subEnd := i + ptr
		if subEnd > len(h) {
			return nil, fmt.Errorf("route: pointer %d overruns header", ptr)
		}
		sub := h[subStart:subEnd]
		var stamp []byte
		if len(sub) == 0 {
			stamp = []byte{End}
		} else {
			stamp = append([]byte(nil), sub...)
		}
		out = append(out, Split{Port: topology.PortID(port), Header: stamp})
		i = subEnd
	}
}

// Scanner finds the end of a multicast header as its bytes arrive one at a
// time, the way a switch consumes it: each top-level PORT byte is followed
// by its PTR, whose PTR-1 sub-header bytes are skipped whole, until the
// top-level END.  It does not split the header; SplitHeader does that once
// Next reports the END.  The zero value is ready, and a scanner that has
// reported done is zero again.
type Scanner struct {
	skip      uint8 // sub-header bytes still to skip (a PTR is one byte)
	expectPtr bool  // the previous byte was a top-level PORT
}

// Next consumes one header byte and reports whether it was the top-level
// END that completes the header.  A zero pointer is an error.
func (s *Scanner) Next(b byte) (done bool, err error) {
	switch {
	case s.skip > 0:
		s.skip--
	case s.expectPtr:
		if b == 0 {
			return false, errors.New("route: zero pointer")
		}
		s.expectPtr = false
		s.skip = b - 1
	case b == End:
		return true, nil
	default:
		s.expectPtr = true
	}
	return false, nil
}

// Decode parses a multicast header back into a Tree.  A bare END header
// decodes to nil (local delivery).
func Decode(h []byte) (*Tree, error) {
	if len(h) == 1 && h[0] == End {
		return nil, nil
	}
	splits, err := SplitHeader(h)
	if err != nil {
		return nil, err
	}
	t := &Tree{}
	for _, s := range splits {
		var sub *Tree
		if !(len(s.Header) == 1 && s.Header[0] == End) {
			sub, err = Decode(s.Header)
			if err != nil {
				return nil, err
			}
		}
		t.Branches = append(t.Branches, Branch{Port: s.Port, Sub: sub})
	}
	return t, nil
}

// EncodeUnicast renders a unicast route as its port-byte sequence.
func EncodeUnicast(ports []topology.PortID) ([]byte, error) {
	return AppendUnicast(make([]byte, 0, len(ports)), ports)
}

// AppendUnicast appends a unicast route's port-byte sequence to dst, so a
// table of routes can share one buffer.
func AppendUnicast(dst []byte, ports []topology.PortID) ([]byte, error) {
	for _, p := range ports {
		if p < 0 || p > MaxPort {
			return nil, fmt.Errorf("route: port %d not encodable", p)
		}
		dst = append(dst, byte(p))
	}
	return dst, nil
}

// BuildTree merges the port lists of unicast routes from one source into a
// multicast routing tree (the per-branch routes must have been computed
// over the same routing so shared prefixes coincide).  It returns an error
// if two routes disagree about what lies beyond a port (one terminating,
// one continuing), which would indicate corrupt inputs.  Branches are
// ordered by port number so the encoding is deterministic.
func BuildTree(routes [][]topology.PortID) (*Tree, error) {
	if len(routes) == 0 {
		return nil, errors.New("route: no routes to merge")
	}
	for i, ports := range routes {
		if len(ports) == 0 {
			return nil, fmt.Errorf("route: empty route %d", i)
		}
	}
	var build func(suffixes [][]topology.PortID) (*Tree, error)
	build = func(suffixes [][]topology.PortID) (*Tree, error) {
		byPort := map[topology.PortID][][]topology.PortID{}
		var order []topology.PortID
		for _, s := range suffixes {
			p := s[0]
			if _, ok := byPort[p]; !ok {
				order = append(order, p)
			}
			byPort[p] = append(byPort[p], s[1:])
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		t := &Tree{}
		for _, p := range order {
			leaves := 0
			var conts [][]topology.PortID
			for _, s := range byPort[p] {
				if len(s) == 0 {
					leaves++
				} else {
					conts = append(conts, s)
				}
			}
			switch {
			case leaves > 0 && len(conts) > 0:
				return nil, fmt.Errorf("route: port %d is both terminal and transit", p)
			case leaves > 1:
				return nil, fmt.Errorf("route: duplicate destination via port %d", p)
			case leaves == 1:
				t.Branches = append(t.Branches, Branch{Port: p})
			default:
				sub, err := build(conts)
				if err != nil {
					return nil, err
				}
				t.Branches = append(t.Branches, Branch{Port: p, Sub: sub})
			}
		}
		return t, nil
	}
	return build(routes)
}

// Broadcast builds the simplified broadcast header of Section 3: the
// unicast route from the source to the up/down root switch followed by the
// broadcast pseudo-port.  Switches forward such a worm to every 'down'
// spanning-tree link and every attached host except the arrival port.
func Broadcast(toRoot []topology.PortID) ([]byte, error) {
	head, err := EncodeUnicast(toRoot)
	if err != nil {
		return nil, err
	}
	return append(head, BroadcastPort), nil
}

// Destinations walks the tree over the topology starting at the given
// switch and returns the hosts it delivers to, in depth-first order.  It
// errors if a leaf branch exits to a switch or a transit branch exits to a
// host — the tree does not fit the topology.
func Destinations(g *topology.Graph, sw topology.NodeID, t *Tree) ([]topology.NodeID, error) {
	if g.Node(sw).Kind != topology.Switch {
		return nil, fmt.Errorf("route: tree rooted at non-switch %d", sw)
	}
	var out []topology.NodeID
	for _, b := range t.Branches {
		ports := g.Node(sw).Ports
		if int(b.Port) >= len(ports) || !ports[b.Port].Wired() {
			return nil, fmt.Errorf("route: switch %d has no wired port %d", sw, b.Port)
		}
		peer := ports[b.Port].Peer
		if b.Sub == nil {
			if g.Node(peer).Kind != topology.Host {
				return nil, fmt.Errorf("route: leaf branch at switch %d port %d exits to a %s",
					sw, b.Port, g.Node(peer).Kind)
			}
			out = append(out, peer)
			continue
		}
		if g.Node(peer).Kind != topology.Switch {
			return nil, fmt.Errorf("route: transit branch at switch %d port %d exits to a %s",
				sw, b.Port, g.Node(peer).Kind)
		}
		sub, err := Destinations(g, peer, b.Sub)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

// String renders the tree in the paper's "1 P 2 P 5 E ..." notation, for
// debugging and documentation.
func (t *Tree) String() string {
	h, err := Encode(t)
	if err != nil {
		return "<invalid tree: " + err.Error() + ">"
	}
	return headerString(h)
}

func headerString(h []byte) string {
	out := make([]byte, 0, len(h)*3)
	skip := -1
	for i, b := range h {
		if i > 0 {
			out = append(out, ' ')
		}
		switch {
		case i == skip:
			out = append(out, 'P')
		case b == End:
			out = append(out, 'E')
		default:
			out = appendInt(out, int(b))
			skip = i + 1
		}
	}
	return string(out)
}

func appendInt(b []byte, v int) []byte {
	return append(b, []byte(fmt.Sprintf("%d", v))...)
}

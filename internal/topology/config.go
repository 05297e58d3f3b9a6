package topology

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseConfig reads the simulator's configuration-file format, which — as
// in the paper's Maisie simulator (Section 7) — specifies the network
// topology and the multicast groups in one file:
//
//	# comment
//	switch s0
//	switch s1
//	host   h0 s0          # host name, attachment switch
//	host   h1 s1
//	link   s0 s1          # full-duplex cable, default delay
//	link   s0 s1 delay=1000
//	group  1  h0 h1       # multicast group ID and members
//
// Nodes must be declared before they are referenced.  It returns the graph
// and the group member lists keyed by group ID (hosts in declaration
// order; group builders sort by ID themselves).
func ParseConfig(r io.Reader) (*Graph, map[int][]NodeID, error) {
	g := New()
	byName := map[string]NodeID{}
	groups := map[int][]NodeID{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("config line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "switch":
			if len(fields) != 2 {
				return nil, nil, fail("usage: switch <name>")
			}
			if _, dup := byName[fields[1]]; dup {
				return nil, nil, fail("duplicate node %q", fields[1])
			}
			byName[fields[1]] = g.AddSwitch(fields[1])
		case "host":
			if len(fields) != 3 {
				return nil, nil, fail("usage: host <name> <switch>")
			}
			if _, dup := byName[fields[1]]; dup {
				return nil, nil, fail("duplicate node %q", fields[1])
			}
			sw, ok := byName[fields[2]]
			if !ok {
				return nil, nil, fail("unknown switch %q", fields[2])
			}
			if g.Node(sw).Kind != Switch {
				return nil, nil, fail("%q is not a switch", fields[2])
			}
			h := g.AddHost(fields[1])
			byName[fields[1]] = h
			g.Connect(sw, h, 1)
		case "link":
			if len(fields) != 3 && len(fields) != 4 {
				return nil, nil, fail("usage: link <a> <b> [delay=N]")
			}
			a, ok := byName[fields[1]]
			if !ok {
				return nil, nil, fail("unknown node %q", fields[1])
			}
			b, ok := byName[fields[2]]
			if !ok {
				return nil, nil, fail("unknown node %q", fields[2])
			}
			if g.Node(a).Kind != Switch || g.Node(b).Kind != Switch {
				return nil, nil, fail("links join switches; hosts attach via 'host'")
			}
			delay := int64(0)
			if len(fields) == 4 {
				val, found := strings.CutPrefix(fields[3], "delay=")
				if !found {
					return nil, nil, fail("unknown option %q", fields[3])
				}
				d, err := strconv.ParseInt(val, 10, 64)
				if err != nil || d <= 0 {
					return nil, nil, fail("bad delay %q", val)
				}
				delay = d
			}
			g.Connect(a, b, delay)
		case "group":
			if len(fields) < 4 {
				return nil, nil, fail("usage: group <id> <host> <host> [...]")
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, nil, fail("bad group id %q", fields[1])
			}
			if _, dup := groups[id]; dup {
				return nil, nil, fail("duplicate group %d", id)
			}
			var members []NodeID
			for _, name := range fields[2:] {
				h, ok := byName[name]
				if !ok {
					return nil, nil, fail("unknown host %q", name)
				}
				if g.Node(h).Kind != Host {
					return nil, nil, fail("%q is not a host", name)
				}
				members = append(members, h)
			}
			groups[id] = members
		default:
			return nil, nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("config: %w", err)
	}
	return g, groups, nil
}

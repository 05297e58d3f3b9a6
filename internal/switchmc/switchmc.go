// Package switchmc implements multicast in the switching fabric (Section 3
// of the paper): the worm itself is replicated inside the crossbar
// switches, guided by the linearized tree header of Figure 2, instead of
// being forwarded by host adapters.
//
// One design is modelled: root-first trees under IDLE fill.  Every
// multicast worm climbs the up/down spanning tree from its source to the
// root as a plain chain and forks only on the way down, and a fork whose
// branch is blocked holds its other branches with IDLE fill.  The paper's
// interrupt-resume and flush-unicast remedies are not modelled (DESIGN.md
// §2): root-first trees under IDLE fill need no deadlock remedy.
//
// Deadlock discipline: replicating worms introduce flow-control
// dependencies between tree branches, so up/down routing alone is not
// sufficient (Figure 3).  The paper's scheme A restricts *all* worms —
// unicast too — to the links of the up/down spanning tree; crosslinks go
// unused.  That is the one discipline this package routes by: trees are
// built on the spanning tree here, and unicast rides the tree-only table
// New is handed, the run's one table (sim.Build makes it, as Stack.Table).
//
// The package also provides the broadcast special case: a unicast prefix
// to the up/down root followed by the broadcast pseudo-port, flooded down
// the spanning tree by the switches themselves.
package switchmc

import (
	"fmt"

	"wormlan/internal/des"
	"wormlan/internal/flit"
	"wormlan/internal/multicast"
	"wormlan/internal/network"
	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
	"wormlan/internal/updown"
)

// Delivery reports one completed worm at a host.
type Delivery struct {
	Worm      *flit.Worm
	Host      topology.NodeID
	At        des.Time
	Multicast bool
}

// System injects unicast and switch-replicated multicast worms.  It
// implements the traffic generator's sink interface.
type System struct {
	K  *des.Kernel
	F  *network.Fabric
	UD *updown.Routing

	// OnDeliver is invoked per completed worm per destination host.
	OnDeliver func(d Delivery)

	table *updown.Table // unicast routes: the tree-only table
	// headers caches the encoded multicast header per (group, source).
	headers map[int]map[topology.NodeID][]byte
	// rootPrefix caches each host's unicast route to the up/down root.
	rootPrefix map[topology.NodeID][]topology.PortID
	nextID     int64
	rec        trace.Recorder
}

// SetRecorder attaches a trace recorder for originate events; nil
// disables them.
func (s *System) SetRecorder(r trace.Recorder) { s.rec = r }

// New builds the system over an existing fabric, routing unicast by table,
// which must be ud's tree-only table.  It takes ownership of the fabric's
// OnDeliver callback.
func New(k *des.Kernel, f *network.Fabric, ud *updown.Routing, table *updown.Table) *System {
	s := &System{
		K: k, F: f, UD: ud,
		table:      table,
		headers:    make(map[int]map[topology.NodeID][]byte),
		rootPrefix: make(map[topology.NodeID][]topology.PortID),
	}
	f.Cfg.OnDeliver = s.onDeliver
	return s
}

func (s *System) onDeliver(d network.Delivery) {
	if s.OnDeliver == nil {
		return
	}
	s.OnDeliver(Delivery{
		Worm: d.Worm, Host: d.Host, At: d.At,
		Multicast: d.Worm.Mode != flit.Unicast,
	})
}

// AddGroup precomputes, for every member, the multicast tree header that
// reaches all other members — the source route a sending host stamps on
// its multicast worms.  Every tree is rooted at the up/down root: the worm
// climbs the spanning tree from the source as a single-branch chain and
// forks only on the way down.  A fork whose branch pointed up the tree
// would make a worm holding a down branch wait on an up one, the down→up
// dependency the up*/down* argument forbids; under IDLE fill such trees
// deadlock.
func (s *System) AddGroup(g *multicast.Group) error {
	if _, dup := s.headers[g.ID]; dup {
		return fmt.Errorf("switchmc: duplicate group %d", g.ID)
	}
	perSrc := make(map[topology.NodeID][]byte, len(g.Members))
	for _, src := range g.Members {
		prefix, err := s.prefixToRoot(src)
		if err != nil {
			return err
		}
		var routes [][]topology.PortID
		for _, dst := range g.Members {
			if dst == src {
				continue
			}
			down, err := s.downFromRoot(dst)
			if err != nil {
				return err
			}
			routes = append(routes, append(append([]topology.PortID(nil), prefix...), down...))
		}
		tree, err := route.BuildTree(routes)
		if err != nil {
			return fmt.Errorf("switchmc: group %d source %d: %w", g.ID, src, err)
		}
		hdr, err := route.Encode(tree)
		if err != nil {
			return fmt.Errorf("switchmc: group %d source %d: %w", g.ID, src, err)
		}
		perSrc[src] = hdr
	}
	s.headers[g.ID] = perSrc
	return nil
}

// SendUnicast injects one unicast worm (background traffic).
func (s *System) SendUnicast(src, dst topology.NodeID, payload int) error {
	rt := s.table.Lookup(src, dst)
	hdr, err := route.EncodeUnicast(rt.Ports)
	if err != nil {
		return err
	}
	s.nextID++
	return s.F.Inject(src, &flit.Worm{
		ID: s.nextID, Src: src, Dst: dst, Mode: flit.Unicast,
		Group: -1, Header: hdr, PayloadLen: payload,
	})
}

// SendMulticast injects one switch-replicated multicast worm from src to
// all other members of the group.
func (s *System) SendMulticast(src topology.NodeID, group, payload int) error {
	perSrc, ok := s.headers[group]
	if !ok {
		return fmt.Errorf("switchmc: unknown group %d", group)
	}
	hdr, ok := perSrc[src]
	if !ok {
		return fmt.Errorf("switchmc: host %d not in group %d", src, group)
	}
	s.nextID++
	if s.rec != nil {
		s.rec.Record(trace.Event{At: s.K.Now(), Kind: trace.EvOriginate,
			Node: src, Port: -1, Worm: s.nextID, Arg: int64(payload)})
	}
	return s.F.Inject(src, &flit.Worm{
		ID: s.nextID, Src: src, Dst: topology.None, Mode: flit.MulticastTree,
		Group: group, Header: hdr, PayloadLen: payload,
	})
}

// SendBroadcast injects a broadcast worm: a unicast prefix from the
// source's switch up to the up/down root, then the broadcast pseudo-port,
// flooded down the spanning tree by the switches (Section 3).  Every host
// in the LAN receives a copy, including the sender.
func (s *System) SendBroadcast(src topology.NodeID, payload int) error {
	prefix, err := s.prefixToRoot(src)
	if err != nil {
		return err
	}
	hdr, err := route.Broadcast(prefix)
	if err != nil {
		return err
	}
	s.nextID++
	if s.rec != nil {
		s.rec.Record(trace.Event{At: s.K.Now(), Kind: trace.EvOriginate,
			Node: src, Port: -1, Worm: s.nextID, Arg: int64(payload)})
	}
	return s.F.Inject(src, &flit.Worm{
		ID: s.nextID, Src: src, Dst: topology.None, Mode: flit.Broadcast,
		Group: -1, Header: hdr, PayloadLen: payload,
	})
}

// prefixToRoot returns the output ports from the host's switch up the
// spanning tree to the root.
func (s *System) prefixToRoot(src topology.NodeID) ([]topology.PortID, error) {
	if cached, ok := s.rootPrefix[src]; ok {
		return cached, nil
	}
	sw, _ := s.F.G.HostAttachment(src)
	climb, err := s.climb(sw)
	if err != nil {
		return nil, err
	}
	prefix := make([]topology.PortID, len(climb))
	for i, c := range climb {
		prefix[i] = s.UD.ParentPort[c]
	}
	s.rootPrefix[src] = prefix
	return prefix, nil
}

// downFromRoot returns the output ports from the root down the spanning
// tree to host dst, ending with the port onto dst's host link.
func (s *System) downFromRoot(dst topology.NodeID) ([]topology.PortID, error) {
	g := s.F.G
	sw, hostPort := g.HostAttachment(dst)
	climb, err := s.climb(sw)
	if err != nil {
		return nil, err
	}
	down := make([]topology.PortID, 0, len(climb)+1)
	for i := len(climb) - 1; i >= 0; i-- {
		c := climb[i]
		down = append(down, g.Node(c).Ports[s.UD.ParentPort[c]].PeerPort)
	}
	return append(down, hostPort), nil
}

// climb returns the switches from sw up the spanning tree to the root,
// root excluded; each leaves for its parent through UD.ParentPort, the
// one tree port between a switch and its parent.
func (s *System) climb(sw topology.NodeID) ([]topology.NodeID, error) {
	var path []topology.NodeID
	for sw != s.UD.Root {
		parent := s.UD.Parent(sw)
		if parent == topology.None {
			return nil, fmt.Errorf("switchmc: switch %d has no path to root", sw)
		}
		path = append(path, sw)
		sw = parent
	}
	return path, nil
}

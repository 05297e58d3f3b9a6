// Package adapter implements host-adapter multicasting (Sections 4-6 of
// the paper): worm replication and retransmission carried out entirely in
// the host interface cards, so that multicast worms appear as ordinary
// unicast worms to the crossbar switches.
//
// The protocol is the paper's "optimistic" resource acquisition:
//
//   - Implicit buffer reservation (Figure 5): a host adapter that has the
//     whole worm buffered forwards it to its successor; the successor
//     reserves buffer space when the head arrives (the header carries the
//     worm size).  If it cannot, it drops the worm and returns a NACK; the
//     sender retransmits after a timeout.  An accepted worm is ACKed, at
//     which point the sender may release its own copy.
//   - Two buffer classes (Figures 6 and 7): multicast propagates from
//     lower to higher host IDs reserving class-1 buffers; at the single
//     ID reversal of the structure the worm switches to class-2 buffers.
//     Buffer-wait chains therefore always point to a higher (ID, class)
//     pair and can never form a cycle.
//   - Cut-through (Section 4, footnote 1): when enabled and the interface
//     is free when a worm's head arrives, the adapter begins retransmitting
//     to its first successor immediately, paced so the copy never outruns
//     reception.  Otherwise — and always in the Myrinet prototype — the
//     worm is stored and forwarded.
//
// Multicast structures are the Hamiltonian circuit (Section 5) and the
// rooted tree (Section 6), built by internal/multicast.
package adapter

import (
	"fmt"
	"sort"

	"wormlan/internal/des"
	"wormlan/internal/eventq"
	"wormlan/internal/flit"
	"wormlan/internal/multicast"
	"wormlan/internal/network"
	"wormlan/internal/rng"
	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
	"wormlan/internal/updown"
)

// Mode selects the multicast structure and start rule.
type Mode uint8

const (
	// ModeCircuit: Hamiltonian circuit (Section 5).  The worm ascends the
	// ID-ordered ring from the originator, reversing once at the wrap.
	ModeCircuit Mode = iota
	// ModeTreeRooted: rooted tree started at the root (Section 6).  The
	// originator first unicasts the message to the lowest-ID member, which
	// descends the tree.  Inherently totally ordered.
	ModeTreeRooted
	// ModeTreeFlood: rooted tree flooded from the originator: each member
	// forwards to all tree neighbours except the arrival one.  Lower
	// latency than ModeTreeRooted, but unordered (Section 6).
	ModeTreeFlood
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeCircuit:
		return "hamiltonian-circuit"
	case ModeTreeRooted:
		return "rooted-tree"
	case ModeTreeFlood:
		return "tree-flood"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Config parameterizes every adapter in the system.
type Config struct {
	Mode Mode

	// CutThrough enables cut-through forwarding when the interface is free
	// at head arrival.  Myrinet hardware cannot do this (worms are always
	// stored and forwarded); the simulator can.
	CutThrough bool

	// TotalOrdering (ModeCircuit only) routes every multicast through the
	// lowest-ID member, which serializes transmissions (Section 5).
	// ModeTreeRooted is ordered by construction; ModeTreeFlood never is.
	TotalOrdering bool

	// ReturnToSender (ModeCircuit only) sends the worm the full lap back
	// to its originator as a delivery confirmation, at the cost of one
	// extra hop of bandwidth (Section 5).
	ReturnToSender bool

	// ClassBytes is the capacity of each of the two buffer classes.
	// Default 12800 (half of the LANai's ~25 KB of packet memory each).
	ClassBytes int

	// DMABytes is the per-adapter host-DMA extension pool shared by both
	// classes (0 disables the [VLB96] overflow trick).
	DMABytes int

	// AckTimeoutBase is the fixed part of the lost-ACK insurance timer;
	// the adaptive part adds 8x the worm's wire size.  The physical layer
	// is reliable, so an ACK always arrives eventually — this timer only
	// guards against protocol bugs and must sit well above worst-case
	// queueing, or spurious retransmissions melt the network down.
	// Default 131072 (~1.6 ms at 640 Mb/s).
	AckTimeoutBase des.Time

	// NackBackoff is the base random backoff before retrying a hop that
	// was NACKed for lack of buffers (Figure 5: "resume transmission ...
	// after a time out"), scaled up exponentially with consecutive
	// failures.  Default 4096.
	NackBackoff des.Time

	// MaxRetries bounds retransmissions per hop before giving up (a
	// give-up is counted, never silent).  Default 20.
	MaxRetries int

	// CtrlPayload is the ACK/NACK worm payload size.  Default 8.
	CtrlPayload int

	// SingleClass disables the two-buffer-class rule, forcing every hop to
	// reserve from class 1.  This is the negative control for the
	// deadlock-prevention ablation: crossing multicasts can then block
	// each other's buffers indefinitely (Figure 6), which surfaces as
	// NACK livelock and eventually GiveUps.
	SingleClass bool

	// PlainForwarding reproduces the paper's Section 7 simulator exactly:
	// adapters forward with unbounded buffering and no ACK/NACK
	// reservation protocol ("work is in progress in evaluating the actual
	// contention for buffers").  The Figure 10/11 experiments run in this
	// mode; the reliable protocol is what Sections 4-6 propose on top.
	PlainForwarding bool
}

// Validate rejects inconsistent configurations.  Zero values are legal
// (withDefaults fills them in); negative or out-of-range values are
// configuration bugs and must not be silently "fixed".
func (c Config) Validate() error {
	if c.Mode > ModeTreeFlood {
		return fmt.Errorf("adapter: unknown mode %v", c.Mode)
	}
	if c.ClassBytes < 0 {
		return fmt.Errorf("adapter: negative ClassBytes %d", c.ClassBytes)
	}
	if c.DMABytes < 0 {
		return fmt.Errorf("adapter: negative DMABytes %d", c.DMABytes)
	}
	if c.AckTimeoutBase < 0 {
		return fmt.Errorf("adapter: negative AckTimeoutBase %d", c.AckTimeoutBase)
	}
	if c.NackBackoff < 0 {
		return fmt.Errorf("adapter: negative NackBackoff %d", c.NackBackoff)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("adapter: negative MaxRetries %d", c.MaxRetries)
	}
	if c.CtrlPayload < 0 {
		return fmt.Errorf("adapter: negative CtrlPayload %d", c.CtrlPayload)
	}
	if c.CtrlPayload > flit.MaxWormSize-16 {
		return fmt.Errorf("adapter: CtrlPayload %d exceeds the worm size limit", c.CtrlPayload)
	}
	if c.TotalOrdering && c.Mode != ModeCircuit {
		return fmt.Errorf("adapter: TotalOrdering requires ModeCircuit (got %v)", c.Mode)
	}
	if c.ReturnToSender && c.Mode != ModeCircuit {
		return fmt.Errorf("adapter: ReturnToSender requires ModeCircuit (got %v)", c.Mode)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.ClassBytes == 0 {
		c.ClassBytes = 12800
	}
	if c.AckTimeoutBase == 0 {
		c.AckTimeoutBase = 131072
	}
	if c.NackBackoff == 0 {
		c.NackBackoff = 4096
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 20
	}
	if c.CtrlPayload == 0 {
		c.CtrlPayload = 8
	}
	return c
}

// Transfer is one logical multicast message, shared by every worm that
// carries a copy of it.
type Transfer struct {
	ID      int64
	Origin  topology.NodeID
	Group   int
	Payload int
	Created des.Time
}

// mcInfo is the adapter-level header of a multicast data worm (carried in
// Worm.Meta; a real implementation would encode it in the first payload
// bytes).
type mcInfo struct {
	Transfer *Transfer
	// Class is the buffer class (0 or 1) the receiver must reserve from.
	Class int
	// HopsLeft is the circuit hop count (Section 5); unused by trees.
	HopsLeft int
	// ToStarter marks the ordering pre-hop to the serializer (circuit) or
	// root (rooted tree).
	ToStarter bool
	// From is the sending adapter (ACK/NACK destination; flood arrival).
	From topology.NodeID
}

// ctrlInfo is the Meta of an ACK or NACK control worm.
type ctrlInfo struct {
	Transfer *Transfer
	Nack     bool
	From     topology.NodeID
}

// AppDelivery is a message copy handed to the local host.
type AppDelivery struct {
	Transfer *Transfer // nil for plain unicast traffic
	Host     topology.NodeID
	At       des.Time
	// Unicast payload details (Transfer == nil).
	Worm *flit.Worm
}

// Stats aggregates protocol-level counters across the system.
type Stats struct {
	MulticastsSent int64 // transfers originated
	UnicastsSent   int64
	Deliveries     int64 // local copies delivered (multicast)
	Nacks          int64 // worms dropped for lack of buffers
	Retransmits    int64 // data worm retransmissions (NACK or timeout)
	// TimeoutRetransmits is the subset of Retransmits triggered by the ACK
	// timer rather than a NACK: the no-feedback loss path (a worm
	// black-holed by a dead link produces neither ACK nor NACK, so only
	// the timer notices).
	TimeoutRetransmits int64
	Duplicates         int64 // duplicate copies suppressed by dedupe
	GiveUps            int64 // hops abandoned after MaxRetries
	Confirmations      int64 // return-to-sender laps completed
	DMASpillBytes      int64 // bytes overflowed to host DMA extensions
	CutThroughFwds     int64 // forwards begun at head arrival
	StoreForwardFwd    int64 // forwards begun after full reception

	// Failure-recovery counters.
	RouteLost    int64 // sends abandoned because no surviving route exists
	PrunedHops   int64 // outstanding hops given up at reroute (peer unreachable)
	GroupsPruned int64 // multicast structures rebuilt over surviving members
	GroupsDead   int64 // multicast structures left with fewer than 2 members
}

// Structure is the multicast structure of one group under the configured
// mode.
type Structure struct {
	Group   *multicast.Group
	Circuit *multicast.Circuit
	Tree    *multicast.Tree

	// Dead marks a structure whose surviving membership fell below two
	// hosts after failures; sends to it are counted losses.
	Dead bool

	// orig is the membership as registered, before any failure pruning.
	orig *multicast.Group
}

// System wires one Adapter per host onto a fabric and routes protocol
// events between them.
type System struct {
	K   *des.Kernel
	F   *network.Fabric
	T   *updown.Table
	Cfg Config

	// OnAppDeliver is invoked for every local copy handed to a host
	// application (both multicast and unicast).
	OnAppDeliver func(d AppDelivery)

	adapters map[topology.NodeID]*Adapter
	groups   map[int]*Structure
	r        *rng.Source
	nextWorm int64
	nextXfer int64
	stats    Stats
	rec      trace.Recorder
}

// SetRecorder attaches a trace recorder for protocol-level events
// (originate, ACK/NACK outcomes, retransmissions).  A nil recorder
// disables them; every site is behind a nil check.
func (s *System) SetRecorder(r trace.Recorder) { s.rec = r }

// emit forwards one protocol event, stamped with the current time.
func (s *System) emit(k trace.Kind, node topology.NodeID, worm, arg int64) {
	s.rec.Record(trace.Event{At: s.K.Now(), Kind: k, Node: node, Port: -1, Worm: worm, Arg: arg})
}

// NewSystem creates an adapter on every host of the fabric's topology and
// installs the delivery hooks.  It takes ownership of the fabric's
// OnDeliver, OnHeadArrival, and OnDiscard callbacks.  The configuration is
// validated; an invalid one is an error, not a silent default.
func NewSystem(k *des.Kernel, f *network.Fabric, t *updown.Table, cfg Config, seed uint64) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		K: k, F: f, T: t, Cfg: cfg.withDefaults(),
		adapters: make(map[topology.NodeID]*Adapter),
		groups:   make(map[int]*Structure),
		r:        rng.New(seed, 0xADA),
	}
	for _, h := range f.G.Hosts() {
		s.adapters[h] = newAdapter(s, h)
	}
	f.Cfg.OnDeliver = s.onDeliver
	f.Cfg.OnHeadArrival = s.onHeadArrival
	f.Cfg.OnDiscard = s.onDiscard
	return s, nil
}

// Stats returns a snapshot of the system-wide protocol counters.
func (s *System) Stats() Stats { return s.stats }

// Adapter returns the adapter of the given host.
func (s *System) Adapter(h topology.NodeID) *Adapter { return s.adapters[h] }

// SendUnicast injects a unicast message from src (implements the traffic
// generator's sink interface).
func (s *System) SendUnicast(src, dst topology.NodeID, payload int) error {
	a := s.adapters[src]
	if a == nil {
		return fmt.Errorf("adapter: %d is not a host", src)
	}
	return a.SendUnicast(dst, payload)
}

// SendMulticast originates a multicast from src (implements the traffic
// generator's sink interface).
func (s *System) SendMulticast(src topology.NodeID, group, payload int) error {
	a := s.adapters[src]
	if a == nil {
		return fmt.Errorf("adapter: %d is not a host", src)
	}
	_, err := a.SendMulticast(group, payload)
	return err
}

// AddGroup registers a multicast group, building its structure under the
// configured mode.  All members must be hosts of the topology.
func (s *System) AddGroup(g *multicast.Group) (*Structure, error) {
	if _, dup := s.groups[g.ID]; dup {
		return nil, fmt.Errorf("adapter: duplicate group %d", g.ID)
	}
	for _, m := range g.Members {
		if s.adapters[m] == nil {
			return nil, fmt.Errorf("adapter: group %d member %d is not a host", g.ID, m)
		}
	}
	st := &Structure{orig: g}
	if err := s.build(st, g); err != nil {
		return nil, err
	}
	s.groups[g.ID] = st
	return st, nil
}

// build (re)computes st's structure over membership g under the configured
// mode.
func (s *System) build(st *Structure, g *multicast.Group) error {
	st.Group = g
	if s.Cfg.Mode == ModeCircuit {
		st.Circuit = multicast.NewCircuitByID(g)
		return nil
	}
	// Topology-aware construction over the host-connectivity hop metric
	// (Figure 8): tree edges are much shorter than random member pairs,
	// which is why the paper's tree loads the network less than the
	// ID-ordered circuit (Section 7.1).  The greedy builder still respects
	// the child-above-parent ID rule.
	tr, err := multicast.NewTreeGreedy(s.F.G, g, 2)
	if err != nil {
		return err
	}
	st.Tree = tr
	return nil
}

// Group returns a registered group structure.
func (s *System) Group(id int) *Structure { return s.groups[id] }

// Reroute installs a recomputed route table after a topology change and
// prunes protocol state that references unreachable peers: every multicast
// structure is rebuilt over the surviving part of its registered
// membership (marked dead below two members, restored when hosts heal),
// and outstanding hops whose destination has no surviving route become
// immediate GiveUps instead of retry loops.  reachable reports whether a
// host can currently be routed to (updown.Routing.Reachable).
func (s *System) Reroute(tbl *updown.Table, reachable func(topology.NodeID) bool) {
	s.T = tbl
	// Group structures, in ID order for determinism.
	ids := make([]int, 0, len(s.groups))
	for id := range s.groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st := s.groups[id]
		orig := st.orig
		var live []topology.NodeID
		for _, m := range orig.Members {
			if reachable(m) {
				live = append(live, m)
			}
		}
		switch {
		case len(live) == len(orig.Members):
			if st.Dead || len(st.Group.Members) != len(orig.Members) {
				s.rebuildStructure(st, orig) // fully healed
			}
		case len(live) < 2:
			if !st.Dead {
				st.Dead = true
				s.stats.GroupsDead++
			}
		case len(live) != len(st.Group.Members) || st.Dead:
			ng, err := multicast.NewGroup(orig.ID, live)
			if err != nil {
				st.Dead = true
				s.stats.GroupsDead++
				continue
			}
			s.rebuildStructure(st, ng)
			s.stats.GroupsPruned++
		}
	}
	// Outstanding hops, in deterministic (host, transfer, destination)
	// order: give-up processing re-originates queued transfers, which
	// draws worm IDs, so the order must not depend on map iteration.
	for _, hn := range s.F.G.Hosts() {
		a := s.adapters[hn]
		var doomed []hopKey
		for key := range a.outstanding {
			if !tbl.HasRoute(a.Host, key.dst) {
				doomed = append(doomed, key)
			}
		}
		sort.Slice(doomed, func(i, j int) bool {
			if doomed[i].xfer != doomed[j].xfer {
				return doomed[i].xfer < doomed[j].xfer
			}
			return doomed[i].dst < doomed[j].dst
		})
		for _, key := range doomed {
			o := a.outstanding[key]
			s.K.Cancel(o.timer)
			delete(a.outstanding, key)
			s.stats.PrunedHops++
			s.stats.GiveUps++
			a.hopFinished(o.info.Transfer)
		}
	}
}

// rebuildStructure recomputes a group's multicast structure over the given
// membership; a structure that cannot be built is dead.
func (s *System) rebuildStructure(st *Structure, g *multicast.Group) {
	st.Dead = s.build(st, g) != nil
	if st.Dead {
		s.stats.GroupsDead++
	}
}

func (s *System) newWormID() int64 { s.nextWorm++; return s.nextWorm }

// sendWorm builds and injects a unicast worm from src to dst with the
// given Meta.  When no surviving route exists the send is abandoned and
// counted (returns nil); callers must tolerate a nil worm.
func (s *System) sendWorm(src, dst topology.NodeID, payload int, meta any, pace *flit.Worm) *flit.Worm {
	if !s.T.HasRoute(src, dst) {
		s.stats.RouteLost++
		return nil
	}
	rt := s.T.Lookup(src, dst)
	hdr, err := route.EncodeUnicast(rt.Ports)
	if err != nil {
		panic(fmt.Sprintf("adapter: unroutable hop %d->%d: %v", src, dst, err))
	}
	w := &flit.Worm{
		ID: s.newWormID(), Src: src, Dst: dst, Mode: flit.Unicast,
		Group: -1, Header: hdr, PayloadLen: payload, Meta: meta, PaceFrom: pace,
	}
	if mi, ok := meta.(*mcInfo); ok {
		w.Group = mi.Transfer.Group
	}
	if err := s.F.Inject(src, w); err != nil {
		panic(fmt.Sprintf("adapter: inject: %v", err))
	}
	return w
}

// classFor returns the buffer class for a hop src->dst: class 0 toward a
// higher host ID, class 1 toward a lower one; reversed keeps a circuit
// worm in class 1 for the rest of its lap after the wrap (Figure 7).
// Under the SingleClass ablation every hop uses class 0.
func (s *System) classFor(src, dst topology.NodeID, reversed bool) int {
	if s.Cfg.SingleClass {
		return 0
	}
	if reversed || dst < src {
		return 1
	}
	return 0
}

// hopKey identifies an outstanding (unACKed) hop.
type hopKey struct {
	xfer int64
	dst  topology.NodeID
}

// outstanding is a sent data worm awaiting ACK/NACK.
type outstanding struct {
	info    *mcInfo
	dst     topology.NodeID
	timer   eventq.Handle
	retries int
}

// holding is a buffered transfer copy whose reservation is pinned until
// every forward out of this adapter has been ACKed.
type holding struct {
	res      Reservation
	forwards int
}

// arrival is the accept/reject decision made when a worm's head reaches an
// adapter.
type arrival struct {
	accepted  bool
	duplicate bool
	res       Reservation
	forwarded bool // cut-through forward already queued
}

// Adapter is the per-host protocol engine.
type Adapter struct {
	sys  *System
	Host topology.NodeID

	class [2]*Pool
	dma   *Pool

	outstanding map[hopKey]*outstanding
	held        map[int64]*holding // transfer ID -> pinned buffer
	arriving    map[*flit.Worm]*arrival
	seen        map[int64]bool // transfer IDs accepted here
	seenOrder   []int64

	// originateQ holds locally originated transfers waiting for buffer
	// space.
	originateQ []*Transfer
}

func newAdapter(s *System, h topology.NodeID) *Adapter {
	a := &Adapter{
		sys: s, Host: h,
		outstanding: make(map[hopKey]*outstanding),
		held:        make(map[int64]*holding),
		arriving:    make(map[*flit.Worm]*arrival),
		seen:        make(map[int64]bool),
	}
	a.class[0] = &Pool{Name: fmt.Sprintf("h%d/class1", h), Cap: s.Cfg.ClassBytes}
	a.class[1] = &Pool{Name: fmt.Sprintf("h%d/class2", h), Cap: s.Cfg.ClassBytes}
	if s.Cfg.DMABytes > 0 {
		a.dma = &Pool{Name: fmt.Sprintf("h%d/dma", h), Cap: s.Cfg.DMABytes}
	}
	return a
}

// Pools exposes the buffer pools for occupancy studies (class 1, class 2,
// DMA extension which may be nil).
func (a *Adapter) Pools() (c1, c2, dma *Pool) { return a.class[0], a.class[1], a.dma }

// SendUnicast injects a plain unicast message (the background traffic of
// Section 7); delivery is reported through OnAppDeliver at the receiver.
func (a *Adapter) SendUnicast(dst topology.NodeID, payload int) error {
	if dst == a.Host {
		return fmt.Errorf("adapter: unicast to self")
	}
	if a.sys.adapters[dst] == nil {
		return fmt.Errorf("adapter: destination %d is not a host", dst)
	}
	a.sys.stats.UnicastsSent++
	// An unreachable destination (partitioned away by failures) is a
	// counted loss, not an error: traffic generation must go on.
	a.sys.sendWorm(a.Host, dst, payload, nil, nil)
	return nil
}

// SendMulticast originates a multicast transfer to the given group.  The
// local copy is delivered according to the ordering rules: immediately for
// unordered modes, in circuit/tree order for ordered ones.
func (a *Adapter) SendMulticast(groupID, payload int) (*Transfer, error) {
	st := a.sys.groups[groupID]
	if st == nil {
		return nil, fmt.Errorf("adapter: unknown group %d", groupID)
	}
	if st.Dead || !st.Group.Contains(a.Host) {
		if st.orig.Contains(a.Host) {
			// The group (or this host's membership) was pruned away by
			// failures: a counted loss, not a generation error.
			a.sys.stats.RouteLost++
			return nil, nil
		}
		return nil, fmt.Errorf("adapter: host %d not in group %d", a.Host, groupID)
	}
	if payload <= 0 || payload+16 > flit.MaxWormSize {
		return nil, fmt.Errorf("adapter: payload %d out of range", payload)
	}
	a.sys.nextXfer++
	t := &Transfer{
		ID: a.sys.nextXfer, Origin: a.Host, Group: groupID,
		Payload: payload, Created: a.sys.K.Now(),
	}
	a.sys.stats.MulticastsSent++
	if a.sys.rec != nil {
		a.sys.emit(trace.EvOriginate, a.Host, t.ID, int64(payload))
	}
	a.originate(t)
	return t, nil
}

// originate starts (or queues) a locally created transfer.
func (a *Adapter) originate(t *Transfer) {
	st := a.sys.groups[t.Group]
	if st.Dead || !st.Group.Contains(a.Host) {
		// The group (or this host's place in it) was pruned away by
		// failures while the transfer waited: a counted loss.
		a.sys.stats.RouteLost++
		return
	}
	succs, toStarter := a.successorsForOrigin(st)
	if len(succs) == 0 {
		// Degenerate: sole effective recipient is the local host.
		a.deliverLocal(t)
		return
	}
	var h *holding
	if !a.sys.Cfg.PlainForwarding {
		// The originator's own copy occupies the class of its first hop:
		// class 1 when the first hop descends in ID (the pre-hop to the
		// serializer or a flood hop toward the root), class 0 otherwise.
		cls := a.sys.classFor(a.Host, succs[0], false)
		res, ok := reserve(a.class[cls], a.dma, t.Payload)
		if !ok {
			a.originateQ = append(a.originateQ, t)
			return
		}
		a.sys.stats.DMASpillBytes += int64(res.Spilled())
		h = &holding{res: res}
		a.held[t.ID] = h
	}
	if !toStarter {
		// The originator's own copy: unordered modes deliver it at send
		// time; in ordered modes the originator is the serializer itself
		// here (otherwise toStarter would be true), so sending IS the
		// serialization point.
		a.deliverLocal(t)
	}
	for _, dst := range succs {
		info := &mcInfo{
			Transfer:  t,
			Class:     a.sys.classFor(a.Host, dst, false),
			ToStarter: toStarter,
			From:      a.Host,
		}
		if st.Circuit != nil && !toStarter {
			info.HopsLeft = a.initialHops(st)
		}
		if h != nil {
			h.forwards++
		}
		a.transmit(info, dst, nil)
	}
}

// successorsForOrigin returns where the originator sends first, and
// whether that is an ordering pre-hop to the structure's starter.
func (a *Adapter) successorsForOrigin(st *Structure) ([]topology.NodeID, bool) {
	switch a.sys.Cfg.Mode {
	case ModeCircuit:
		if a.sys.Cfg.TotalOrdering && a.Host != st.Group.Lowest() {
			return []topology.NodeID{st.Group.Lowest()}, true
		}
		succ, err := st.Circuit.Successor(a.Host)
		if err != nil {
			panic(err)
		}
		return []topology.NodeID{succ}, false
	case ModeTreeRooted:
		if a.Host != st.Tree.Root {
			return []topology.NodeID{st.Tree.Root}, true
		}
		return st.Tree.Children(a.Host), false
	case ModeTreeFlood:
		return st.Tree.Neighbours(a.Host), false
	}
	panic("adapter: unknown mode")
}

// initialHops is the circuit hop budget set by the (effective) originator.
func (a *Adapter) initialHops(st *Structure) int {
	n := st.Circuit.Len()
	if a.sys.Cfg.TotalOrdering {
		// The serializer covers the other N-1 members.
		return n - 1
	}
	if a.sys.Cfg.ReturnToSender {
		return n // full lap, back to the originator
	}
	return n - 1 // stop at the originator's predecessor
}

// transmit sends one data-worm hop and arms its retransmission timer.
// Under PlainForwarding the hop is fire-and-forget.
func (a *Adapter) transmit(info *mcInfo, dst topology.NodeID, pace *flit.Worm) {
	if a.sys.Cfg.PlainForwarding {
		a.sys.sendWorm(a.Host, dst, info.Transfer.Payload, info, pace)
		return
	}
	if !a.sys.T.HasRoute(a.Host, dst) {
		// The successor is unreachable under the current map: a permanent
		// give-up, not an endless retry loop.
		a.sys.stats.RouteLost++
		a.sys.stats.GiveUps++
		a.hopFinished(info.Transfer)
		return
	}
	key := hopKey{info.Transfer.ID, dst}
	o := a.outstanding[key]
	if o == nil {
		o = &outstanding{info: info, dst: dst}
		a.outstanding[key] = o
	}
	a.sys.sendWorm(a.Host, dst, info.Transfer.Payload, info, pace)
	a.armTimer(key, o)
}

// armTimer arms the per-hop retry timer: exponential backoff on the fixed
// part (doubling with each retry, capped), an adaptive 8x-wire-size share,
// and deterministic seeded jitter so synchronized losses don't retry in
// lockstep.  This timer is the only recovery for losses that produce no
// NACK — a worm black-holed by a dead link vanishes without feedback, so
// the hop retries on timeout until the detector reroutes around the
// failure or MaxRetries converts it into a counted give-up.
func (a *Adapter) armTimer(key hopKey, o *outstanding) {
	a.sys.K.Cancel(o.timer)
	wire := des.Time(o.info.Transfer.Payload + 16)
	backoff := a.sys.Cfg.AckTimeoutBase << uint(min(o.retries, 3))
	timeout := backoff + 8*wire + des.Time(a.sys.r.Intn(int(a.sys.Cfg.AckTimeoutBase/8)+1))
	if a.sys.rec != nil {
		a.sys.rec.Record(trace.Event{At: a.sys.K.Now(), Kind: trace.EvRetransmitBackoff,
			Node: a.Host, Port: 0, Worm: o.info.Transfer.ID, Arg: int64(timeout)})
	}
	o.timer = a.sys.K.After(timeout, func() { a.onTimeout(key) })
}

func (a *Adapter) onTimeout(key hopKey) {
	o := a.outstanding[key]
	if o == nil || !a.retry(key, o) {
		return
	}
	a.sys.stats.TimeoutRetransmits++
	a.resend(key, o)
}

func (a *Adapter) onNack(t *Transfer, from topology.NodeID) {
	key := hopKey{t.ID, from}
	o := a.outstanding[key]
	if o == nil || !a.retry(key, o) {
		return // a nil o: ACK already arrived (stale NACK from a duplicate)
	}
	// Back off before retrying: the successor's buffer needs time to
	// drain (Figure 5: "resume transmission after a time out").
	a.sys.K.Cancel(o.timer)
	base := a.sys.Cfg.NackBackoff << uint(min(o.retries, 4))
	delay := base/2 + des.Time(a.sys.r.Intn(int(base)))
	if a.sys.rec != nil {
		a.sys.rec.Record(trace.Event{At: a.sys.K.Now(), Kind: trace.EvRetransmitBackoff,
			Node: a.Host, Port: 1, Worm: t.ID, Arg: int64(delay)})
	}
	o.timer = a.sys.K.After(delay, func() {
		if o := a.outstanding[key]; o != nil {
			a.resend(key, o)
		}
	})
}

// retry counts one more attempt at an outstanding hop and reports whether
// it may go on: past MaxRetries the hop is a counted give-up.
func (a *Adapter) retry(key hopKey, o *outstanding) bool {
	o.retries++
	if o.retries > a.sys.Cfg.MaxRetries {
		a.sys.stats.GiveUps++
		delete(a.outstanding, key)
		a.hopFinished(o.info.Transfer)
		return false
	}
	a.sys.stats.Retransmits++
	return true
}

// resend retransmits an outstanding hop and re-arms its timer.
func (a *Adapter) resend(key hopKey, o *outstanding) {
	if a.sys.rec != nil {
		a.sys.emit(trace.EvRetransmit, a.Host, 0, o.info.Transfer.ID)
	}
	a.sys.sendWorm(a.Host, o.dst, o.info.Transfer.Payload, o.info, nil)
	a.armTimer(key, o)
}

// hopFinished decrements the transfer's pinned-forward count and releases
// the buffer copy when the last forward completes.
func (a *Adapter) hopFinished(t *Transfer) {
	h := a.held[t.ID]
	if h == nil {
		return
	}
	h.forwards--
	if h.forwards > 0 {
		return
	}
	h.res.release()
	delete(a.held, t.ID)
	a.kickOriginateQ()
}

func (a *Adapter) kickOriginateQ() {
	if len(a.originateQ) == 0 {
		return
	}
	q := a.originateQ
	a.originateQ = nil
	for _, t := range q {
		a.originate(t)
	}
}

func (a *Adapter) markSeen(xfer int64) {
	a.seen[xfer] = true
	a.seenOrder = append(a.seenOrder, xfer)
	if len(a.seenOrder) > 8192 {
		old := a.seenOrder[0]
		a.seenOrder = a.seenOrder[1:]
		delete(a.seen, old)
	}
}

func (a *Adapter) deliverLocal(t *Transfer) {
	a.sys.stats.Deliveries++
	if a.sys.OnAppDeliver != nil {
		a.sys.OnAppDeliver(AppDelivery{Transfer: t, Host: a.Host, At: a.sys.K.Now()})
	}
}

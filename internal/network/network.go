// Package network implements the wormhole-routing switching fabric at the
// byte level: crossbar switches with slack-buffered input ports, STOP/GO
// backpressure flow control (Figure 1 of the paper), round-robin output
// arbitration, links with propagation delay, and host network interfaces.
//
// The model follows Section 2 of the paper (the Myrinet protocols):
//
//   - Wormhole routing: a switch forwards a worm toward its output port as
//     soon as the head is routed; a worm may stretch across several links.
//   - Backpressure: each input port has a small slack buffer with a STOP
//     threshold Ks and a GO threshold Kg; STOP/GO symbols travel on the
//     reverse channel with the same propagation delay as data.
//   - Source routing: unicast worms carry a list of output-port bytes, one
//     stripped per switch.
//
// Switch-level multicasting (Section 3) replicates a worm in the crossbar
// under IDLE fill: a fork binds all its outputs at once, and while any
// branch is blocked the others hold their ports and send IDLE.
//
// Config.NumVCs splits every link into that many virtual-channel lanes:
// each lane has its own slack buffer and STOP/GO state, and the physical
// wire is multiplexed between ready lanes one flit per tick by a rotating-
// priority lane scheduler.  Crossbar arbitration is either the classic
// rotated port scan or an iSLIP request/grant/accept arbiter
// (Config.Arb); with NumVCs == 1 and the scan the fabric is byte-for-byte
// the VC-free model.  See DESIGN.md §13.
//
// The fabric is driven by a des.Kernel and advances one byte-time per tick.
// Everything is deterministic: ports, switches, and links are always
// scanned in index order, and arbitration uses a rotating round-robin
// pointer.
package network

import (
	"fmt"
	"math/bits"

	"wormlan/internal/arb"
	"wormlan/internal/des"
	"wormlan/internal/flit"
	"wormlan/internal/rng"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
	"wormlan/internal/updown"
)

// ArbPolicy selects the crossbar output-arbitration discipline.
type ArbPolicy uint8

const (
	// ArbScan: the classic rotated port scan — inputs are visited in
	// rotated ascending order and grab their outputs first-come.
	ArbScan ArbPolicy = iota
	// ArbISLIP: single-output (unicast) requests are arbitrated by a
	// per-switch iSLIP request/grant/accept arbiter (internal/arb) after
	// the routing scan; multi-output (replicating) requests keep the
	// atomic all-or-nothing scan grant.
	ArbISLIP
)

// String names the policy.
func (a ArbPolicy) String() string {
	switch a {
	case ArbScan:
		return "scan"
	case ArbISLIP:
		return "islip"
	default:
		return fmt.Sprintf("arb(%d)", uint8(a))
	}
}

// ParseArb parses an arbiter name as String prints it; the empty name is
// the default port scan.
func ParseArb(name string) (ArbPolicy, error) {
	switch name {
	case "", "scan":
		return ArbScan, nil
	case "islip":
		return ArbISLIP, nil
	default:
		return 0, fmt.Errorf("network: unknown arbiter %q (want scan or islip)", name)
	}
}

// Delivery describes one worm fully received by a host interface.
type Delivery struct {
	Worm *flit.Worm
	Host topology.NodeID
	At   des.Time
}

// Config parameterizes the fabric.
type Config struct {
	// StopMark (Ks) is the slack fill at which an input port sends STOP;
	// GoMark (Kg) is the fill at which it sends GO.  Slack capacity is
	// automatically Ks + 2*linkDelay per port, the minimum that guarantees
	// no overflow.  Defaults: Ks=56, Kg=24 (Myrinet-like, see DESIGN.md).
	StopMark, GoMark int

	// NumVCs is the number of virtual-channel lanes per link (1..4,
	// default 1).  Each lane gets an independent slack buffer and STOP/GO
	// reverse-channel bit; the physical wire carries one flit per tick,
	// shared between ready lanes by a rotating-priority lane scheduler.
	NumVCs int

	// VCHeaders, when set, makes switches interpret source-route bytes as
	// vc<<6|port pairs (see internal/route.EncodeVCPort), so a route can
	// steer each hop onto a chosen lane (e.g. dateline VC switching on a
	// torus).  Multicast tree headers decode the same way, giving each
	// fork branch its own lane; plain port bytes (< 0x40) land on lane 0
	// either way.  When clear, route bytes are plain ports and all traffic
	// rides lane 0, whatever NumVCs is.
	VCHeaders bool

	// Arb selects the crossbar arbitration policy; ArbIters is the iSLIP
	// iteration count (default 1).  Each switch's grant/accept pointers
	// start from a seed derived from its node ID.  Ignored under ArbScan.
	Arb      ArbPolicy
	ArbIters int

	// DisableFastForward turns off the payload-shift Skip optimization
	// (see fastforward.go), forcing tick-by-tick execution.
	// The fast-forward exactness tests use it to compare both executions
	// of one scenario; simulations never need it.
	DisableFastForward bool

	// OnDeliver is invoked when a host interface completes reassembly of a
	// worm.  It runs inside the simulation tick; callees may inject.
	OnDeliver func(d Delivery)

	// OnHeadArrival is invoked when the first flit of a worm reaches a
	// host interface — the moment a cut-through host adapter can begin
	// forwarding (Section 4).  The worm's header carries its size, so the
	// adapter can make its buffer-reservation decision here.
	OnHeadArrival func(w *flit.Worm, host topology.NodeID, at des.Time)

	// OnDiscard is invoked when a host interface discards an incoming worm
	// — truncated by a failure upstream or corrupted on the wire — instead
	// of delivering it.  Adapters use it to release reservations made at
	// head arrival.  It runs inside the simulation tick.
	OnDiscard func(w *flit.Worm, host topology.NodeID, at des.Time)

	// Recorder, when non-nil, receives the worm-lifecycle and flow-control
	// event stream (see internal/trace).  Every instrumentation site is
	// behind a nil check, so a nil Recorder costs one predictable branch.
	Recorder trace.Recorder

	// Metrics enables per-switch crossbar-occupancy sampling; per-channel
	// busy/stall counters are always on (they are one increment on paths
	// that already count flits).  Snapshot via Fabric.Metrics.
	Metrics bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.StopMark == 0 {
		out.StopMark = 56
	}
	if out.GoMark == 0 {
		out.GoMark = 24
	}
	if out.NumVCs == 0 {
		out.NumVCs = 1
	}
	if out.ArbIters == 0 {
		out.ArbIters = 1
	}
	return out
}

// Validate reports a configuration no fabric can be built from; New
// returns the same error.  Zero fields mean "default" and are always valid;
// negative ones never are.
func (c *Config) Validate() error {
	for _, v := range [...]struct {
		name string
		n    int
	}{
		{"StopMark", c.StopMark}, {"GoMark", c.GoMark}, {"ArbIters", c.ArbIters},
	} {
		if v.n < 0 {
			return fmt.Errorf("network: negative %s %d", v.name, v.n)
		}
	}
	d := c.withDefaults()
	if d.GoMark > d.StopMark {
		return fmt.Errorf("network: GoMark %d above StopMark %d", d.GoMark, d.StopMark)
	}
	if d.NumVCs < 1 || d.NumVCs > 4 {
		return fmt.Errorf("network: NumVCs %d outside [1,4]", d.NumVCs)
	}
	return nil
}

// Counters aggregates fabric-wide statistics.
type Counters struct {
	Injected       int64 // worms injected by hosts
	Delivered      int64 // worm deliveries completed (multicast counts each leaf)
	Flushed        int64 // always 0: kept so pinned %+v hashes of Counters hold
	FlitsDelivered int64 // flits handed to host interfaces
	FlitsCarried   int64 // flit-hops across all links
	Fragments      int64 // always 0: kept so pinned %+v hashes of Counters hold

	// Failure accounting.  Each worm copy lost to a failure is counted in
	// WormsDropped exactly once, whichever path noticed the loss first, so
	// for unicast traffic the conservation law
	//
	//	Injected == Delivered + WormsDropped
	//
	// holds once the fabric quiesces.
	WormsDropped    int64 // worm copies lost to link/switch failures or corruption
	FlitsDropped    int64 // individual flits lost (black-holed, wiped, or drained)
	StaleRouteDrops int64 // route branches pointing at a dead output link
	EpochMismatches int64 // stale-route worms injected before the last topology change
	TruncatedDrops  int64 // worms discarded at a host after a forward reset
	CorruptDrops    int64 // worms discarded at a host for flit corruption

	// Hello-protocol accounting (see hello.go).  Hello flits are control
	// symbols outside the worm conservation law, so they get their own
	// counters: Sent + Lost + Deferred-resolutions happen on the sending
	// end, Seen on the receiving end; Sent - Seen is the in-flight or
	// black-holed residue.
	HellosSent     int64 // hello flits placed on live links
	HellosSeen     int64 // hello flits consumed at receiving ends
	HellosLost     int64 // hellos eaten by dead links
	HellosDeferred int64 // tick-level deferrals to data traffic or STOP
}

// Fabric is the switching fabric of one wormhole LAN.
type Fabric struct {
	K   *des.Kernel
	G   *topology.Graph
	Cfg Config
	// UD provides the spanning tree for Broadcast worms; may be nil if no
	// broadcast traffic is injected.
	UD *updown.Routing

	links []*dlink
	sw    []*swState // indexed by NodeID; nil for hosts
	hosts []*hostIf  // indexed by NodeID; nil for switches

	// nvc caches Cfg.NumVCs: lane index = port*nvc + vc everywhere a
	// switch port array is indexed, and the hot paths branch on nvc > 1.
	nvc int

	// adaptive, when non-nil, makes switches interpret route.AdaptivePort
	// header bytes as the Duato route-anywhere marker (see adaptive.go).
	adaptive *AdaptiveTable

	// Active-element sets and wake-up state (see active.go).  The bitsets
	// are the only record of membership.  Phase 1 visits the links with an
	// arrival this tick (the delay classes' arrival bitsets) plus settle;
	// linkAct holds every link with state for Skip.
	linkAct  bitset // links with a flit in flight or a STOP in the ring/view
	settle   bitset // links whose reverse ring or STOP view is still moving
	inFlight int    // flits in flight on all links
	swAct    bitset // switch NodeIDs
	pubSw    bitset // switches with a dirty or pending STOP/GO port
	hostAct  bitset // host NodeIDs (transmit side)
	hostNap  bitset // hosts in hostAct napped behind STOP
	rxBusy   int    // hosts with a reception in progress
	heads    int    // sleeping pmWait heads, fabric-wide
	naps     int    // napped lanes and hosts, fabric-wide
	// passes counts completed transmit phases; a napped sender records the
	// pass it napped in, so the stall ticks it skipped are passes-napAt.
	passes int64

	// classes holds one delayClass per distinct link propagation delay.
	classes []delayClass

	lastMove des.Time // last tick at which any flit moved
	work     bool     // any activity (movement or held state) this tick
	moved    bool     // any flit actually moved this tick
	skipHold des.Time // fast-forward backoff: no Skip attempt before this tick
	// fed marks the links a validated fast-forward window refills every
	// tick, and feed[l.id] the flit it refills them with (fastforward.go);
	// scratch of one Skip call.
	fed  bitset
	feed []flit.Flit
	// Fast-forward diagnostics, deliberately outside Counters: a skipping
	// and a non-skipping run must compare equal on every Counters field.
	skips, skippedTicks int64
	ctr                 Counters

	// Failure state (see fault.go).
	epoch int64            // topology epoch, bumped on every fail/restore
	fail  *updown.Failures // current dead links and switches

	// Hello engine state (see hello.go); nil when the protocol is off.
	hello    *HelloConfig
	helloDue []des.Time    // per-link next hello transmission time
	helloRng []*rng.Source // per-link jitter streams

	// Observability (see observe.go).
	rec     trace.Recorder // nil when tracing is disabled
	swBound []int64        // per-node crossbar occupancy integral, nil when metrics off
	swPeak  []int          // per-node peak bound outputs
	mticks  int64          // active fabric ticks observed while metrics on
}

// New builds a fabric over the topology.  ud may be nil when broadcast
// worms will not be used.
func New(k *des.Kernel, g *topology.Graph, ud *updown.Routing, cfg Config) (*Fabric, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{K: k, G: g, Cfg: cfg.withDefaults(), UD: ud, fail: updown.NewFailures()}
	f.rec = f.Cfg.Recorder
	if f.Cfg.Metrics {
		f.swBound = make([]int64, len(g.Nodes))
		f.swPeak = make([]int, len(g.Nodes))
	}
	f.sw = make([]*swState, len(g.Nodes))
	f.hosts = make([]*hostIf, len(g.Nodes))
	f.nvc = f.Cfg.NumVCs
	nvc := f.nvc

	// One directional link per wired (node, port); destination resolved to
	// the peer's input side.  Switch port arrays are lane-flattened: index
	// port*nvc + vc, so with NumVCs == 1 lane indices are port indices and
	// the whole model reduces to the VC-free fabric.
	for ni := range g.Nodes {
		n := &g.Nodes[ni]
		switch n.Kind {
		case topology.Switch:
			s := &swState{node: n.ID, f: f}
			lanes := len(n.Ports) * nvc
			s.in = make([]inPort, lanes)
			s.out = make([]outPort, lanes)
			s.routeIns = newBitset(lanes)
			s.boundIns = newBitset(lanes)
			s.restIns = newBitset(lanes)
			s.dirtyIns = newBitset(lanes)
			s.pendIns = newBitset(lanes)
			s.deadIns = newBitset(lanes)
			for li := range s.in {
				s.out[li].boundIn = -1
				s.out[li].vc = uint8(li % nvc)
				s.out[li].base = li - li%nvc
				s.in[li].f = f
				s.in[li].sw = s
				s.in[li].idx = li
				s.in[li].vc = uint8(li % nvc)
			}
			if cfg.Arb == ArbISLIP {
				s.arb = arb.New(lanes, lanes, f.Cfg.ArbIters, uint64(n.ID))
				s.arbIns = newBitset(lanes)
			}
			f.sw[ni] = s
		case topology.Host:
			f.hosts[ni] = &hostIf{node: n.ID, f: f}
		}
	}
	// The per-link pipeline rings and per-lane slack rings are carved from
	// shared slabs: one allocation each instead of several per link, and
	// the rings end up cache-adjacent in construction order.
	var nLinks, pipeFlits, ctrlSlots, slackFlits int
	for ni := range g.Nodes {
		for _, p := range g.Nodes[ni].Ports {
			if !p.Wired() {
				continue
			}
			nLinks++
			pipeFlits += int(p.Delay)
			ctrlSlots += int(p.Delay)
			if f.sw[p.Peer] != nil {
				slackFlits += nvc * (f.Cfg.StopMark + 2*int(p.Delay))
			}
		}
	}
	pipeSlab := make([]flit.Flit, pipeFlits)
	ctrlSlab := make([]uint8, ctrlSlots)
	slackSlab := make([]flit.Flit, slackFlits)
	lw := (nLinks + 63) / 64

	for ni := range g.Nodes {
		n := &g.Nodes[ni]
		for pi, p := range n.Ports {
			if !p.Wired() {
				continue
			}
			l := &dlink{
				f:       f,
				id:      len(f.links),
				delay:   int(p.Delay),
				srcNode: n.ID, srcPort: topology.PortID(pi),
				dstNode: p.Peer, dstPort: p.PeerPort,
			}
			l.grantTick = -1
			l.aw, l.abit = l.id>>6, 1<<uint(l.id&63)
			l.pipe, pipeSlab = pipeSlab[:l.delay:l.delay], pipeSlab[l.delay:]
			l.ctrl, ctrlSlab = ctrlSlab[:l.delay:l.delay], ctrlSlab[l.delay:]
			f.links = append(f.links, l)
			if s := f.sw[ni]; s != nil {
				for v := 0; v < nvc; v++ {
					s.out[pi*nvc+v].link = l
				}
			} else {
				f.hosts[ni].outLink = l
			}
			// Destination side bookkeeping: every lane of the receiving
			// port gets its own slack ring on the shared arrival link.
			if s := f.sw[p.Peer]; s != nil {
				base := int(p.PeerPort) * nvc
				l.dstIns = s.in[base : base+nvc : base+nvc]
				for v := 0; v < nvc; v++ {
					in := &s.in[base+v]
					in.inLink = l
					in.cap = f.Cfg.StopMark + 2*l.delay
					in.slack, slackSlab = slackSlab[:in.cap:in.cap], slackSlab[in.cap:]
					in.stopMark = f.Cfg.StopMark
					in.goMark = f.Cfg.GoMark
				}
			} else {
				l.dstHost = f.hosts[p.Peer]
			}
		}
	}
	// One delay class per distinct delay, in first-seen link order, each
	// with its slab of delay slot-major arrival bitsets.
	classOf := make([]int, len(f.links))
	for i, l := range f.links {
		classOf[i] = -1
		for c := range f.classes {
			if f.classes[c].delay == int64(l.delay) {
				classOf[i] = c
				break
			}
		}
		if classOf[i] < 0 {
			classOf[i] = len(f.classes)
			f.classes = append(f.classes, delayClass{delay: int64(l.delay), lw: lw,
				arr: make([]uint64, l.delay*lw)})
		}
	}
	for i, l := range f.links {
		l.cls = &f.classes[classOf[i]]
	}
	f.linkAct = newBitset(len(f.links))
	f.fed = newBitset(len(f.links))
	f.feed = make([]flit.Flit, len(f.links))
	f.settle = newBitset(len(f.links))
	f.swAct = newBitset(len(g.Nodes))
	f.pubSw = newBitset(len(g.Nodes))
	f.hostAct = newBitset(len(g.Nodes))
	f.hostNap = newBitset(len(g.Nodes))
	return f, nil
}

// Counters returns a snapshot of the fabric-wide counters.
func (f *Fabric) Counters() Counters { return f.ctr }

// Inject hands a worm to the host's network interface for transmission.
// The interface sends one worm at a time; others wait in its queue (the
// paper: "the worm can be injected whenever the interface is free").
func (f *Fabric) Inject(host topology.NodeID, w *flit.Worm) error {
	h := f.hosts[host]
	if h == nil {
		return fmt.Errorf("network: node %d is not a host", host)
	}
	if err := w.Validate(); err != nil {
		return err
	}
	if w.Mode == flit.Broadcast && f.UD == nil {
		return fmt.Errorf("network: broadcast worm without up/down routing")
	}
	w.Created = f.K.Now()
	w.Epoch = f.epoch
	h.queue = append(h.queue, w)
	f.ctr.Injected++
	f.hostAct.set(int(host))
	f.activate()
	return nil
}

// Busy reports whether the host interface is currently transmitting.
func (f *Fabric) Busy(host topology.NodeID) bool {
	h := f.hosts[host]
	return h.cur != nil || h.qlen() > 0
}

func (f *Fabric) activate() {
	f.K.Activate(f)
	f.lastMove = f.K.Now()
}

// Tick advances the fabric one byte-time.  It implements des.Ticker.
//
// Each phase visits only the elements that can act this tick (see
// active.go): an element left out is provably a no-op under the full scan
// this loop replaces, so the visit order — ascending index — and every
// observable effect are identical to scanning everything.
func (f *Fabric) Tick(now des.Time) bool {
	f.work = false
	f.moved = false
	for i := range f.classes {
		c := &f.classes[i]
		c.slot = int(now % c.delay)
	}

	// Phase 1: links deliver the flits and control state that have been in
	// flight for one full propagation delay — the links with an arrival bit
	// in their class's current slot, plus those whose reverse channel is
	// still settling, in ascending link order.
	for wi, w := range f.settle.words {
		for i := range f.classes {
			c := &f.classes[i]
			w |= c.arr[c.slot*c.lw+wi]
		}
		for ; w != 0; w &= w - 1 {
			f.links[wi<<6+bits.TrailingZeros64(w)].deliver(now)
		}
	}
	if f.moved || f.inFlight > 0 {
		f.work = true
	}

	// Phase 2: switches route worm heads and arbitrate output ports.
	f.swAct.forEach(func(ni int) {
		if s := f.sw[ni]; !s.dead {
			s.route(now)
		}
	})

	// Phase 3: bound outputs and host interfaces transmit one flit each.  A
	// switch with nothing to publish settles its liveness right here.
	f.swAct.forEach(func(ni int) {
		if s := f.sw[ni]; !s.dead {
			s.transmit(now)
			if !f.pubSw.has(ni) {
				s.settleLiveness()
			}
		}
	})
	f.hostAct.forEachAndNot(&f.hostNap, func(ni int) {
		h := f.hosts[ni]
		h.transmit(now)
		if h.cur != nil || h.qlen() > 0 {
			f.work = true
		} else {
			// Nothing queued: transmit stays a no-op until the next Inject.
			f.hostAct.clear(ni)
		}
	})
	f.passes++
	if f.naps > 0 {
		// A napped host still has its stream to send.
		f.work = true
	}

	// Phase 3b: due liveness hellos go out on links the data phases left
	// free this tick (no-op unless EnableHello was called).
	f.helloPhase(now)

	// Phase 4: input ports publish STOP/GO onto the reverse channels, at the
	// active switches with a dirty or pending port (see swState.publish).
	f.pubSw.forEach(func(ni int) {
		if s := f.sw[ni]; f.swAct.has(ni) && !s.dead {
			s.publish(now)
			s.settleLiveness()
		}
	})
	if f.swBound != nil {
		f.mticks++
	}
	if f.rxBusy > 0 {
		f.work = true
	}
	if f.moved {
		f.lastMove = now
	}
	if wormcheckEnabled {
		f.wormcheckTick(now)
	}
	return f.work
}

// Stalled reports whether the fabric holds blocked worms that have made no
// progress for the given number of byte-times — the observable symptom of
// a wormhole deadlock.
func (f *Fabric) Stalled(window des.Time) bool {
	if !f.anythingHeld() {
		return false
	}
	return f.K.Now()-f.lastMove >= window
}

func (f *Fabric) anythingHeld() bool {
	for _, s := range f.sw {
		if s == nil || s.dead {
			continue
		}
		for pi := range s.in {
			if s.in[pi].fill > 0 || s.in[pi].mode != pmIdle {
				return true
			}
		}
	}
	for _, h := range f.hosts {
		if h != nil && (h.cur != nil || h.qlen() > 0) {
			return true
		}
	}
	return false
}

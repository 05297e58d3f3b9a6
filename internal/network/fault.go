package network

// Fault injection and teardown.
//
// The failure model (see DESIGN.md §Failure model) is a *forward reset*
// discipline rather than the literal assert-STOP-forever a broken Myrinet
// cable would produce: asserting STOP forever on a wormhole path wedges
// every worm behind it into a permanent deadlock, which is exactly the
// state the mapper daemon exists to clear.  Instead:
//
//   - A dead link black-holes flits sent into it (dlink.send), so upstream
//     worm sources drain instead of wedging.  In-flight flits are dropped
//     at fail time.
//   - The downstream stub of a worm truncated by the failure is terminated
//     by a synthetic Bad tail, which propagates through bound switch ports
//     tearing down their bindings, and is discarded at the receiving host
//     (TruncatedDrops).
//   - A dead switch additionally wipes its own port state, counting every
//     worm copy held in its slack buffers as dropped.
//
// Every worm copy lost this way passes through dropWorm, which counts it
// exactly once: the worm's RxAborted mark, set by the first call, is the
// one record that it was dropped.  That preserves the conservation law
// Injected == Delivered + WormsDropped for unicast traffic.

import (
	"fmt"

	"wormlan/internal/des"
	"wormlan/internal/flit"
	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
	"wormlan/internal/updown"
)

// TopologyEpoch returns the current topology epoch.  It starts at zero and
// is bumped by every FailLink/RestoreLink/FailSwitch/RestoreSwitch, and
// worms are stamped with it at injection; a worm whose epoch is behind the
// fabric's carries a route computed against a stale map.
func (f *Fabric) TopologyEpoch() int64 { return f.epoch }

// Failures returns a snapshot of the current failure set, suitable as
// input to updown.WithoutEdges.
func (f *Fabric) Failures() *updown.Failures { return f.fail.Clone() }

// SetRouting installs a (re)computed up/down labelling, used by Broadcast
// worms and by diagnostics.  Unicast and multicast-tree routes are carried
// in worm headers and are re-derived by callers from the same labelling.
func (f *Fabric) SetRouting(ud *updown.Routing) { f.UD = ud }

// dropWorm records the loss of a worm copy, exactly once per copy.
func (f *Fabric) dropWorm(w *flit.Worm) {
	if w == nil || w.RxAborted {
		return
	}
	w.RxAborted = true
	f.ctr.WormsDropped++
	if f.rec != nil {
		f.emit(f.K.Now(), trace.EvDropped, topology.None, -1, w.ID, 0)
	}
}

// FailLink kills the full-duplex cable attached to port p of node n: both
// directions stop carrying data, in-flight flits are lost, and worms cut
// in half by the failure are terminated with a forward reset.
func (f *Fabric) FailLink(n topology.NodeID, p topology.PortID) error {
	port := f.G.Node(n).Ports[p]
	if !port.Wired() {
		return fmt.Errorf("network: port %d of node %d is not wired", p, n)
	}
	if f.fail.Links[updown.Edge{Node: n, Port: p}] {
		return fmt.Errorf("network: link at port %d of node %d already failed", p, n)
	}
	f.fail.FailLink(f.G, n, p)
	f.newEpoch()
	return nil
}

// RestoreLink revives the cable attached to port p of node n.  The cable
// only actually carries data again once both endpoint switches are alive.
func (f *Fabric) RestoreLink(n topology.NodeID, p topology.PortID) error {
	port := f.G.Node(n).Ports[p]
	if !port.Wired() {
		return fmt.Errorf("network: port %d of node %d is not wired", p, n)
	}
	if !f.fail.Links[updown.Edge{Node: n, Port: p}] {
		return fmt.Errorf("network: link at port %d of node %d is not failed", p, n)
	}
	delete(f.fail.Links, updown.Edge{Node: n, Port: p})
	delete(f.fail.Links, updown.Edge{Node: port.Peer, Port: port.PeerPort})
	f.newEpoch()
	return nil
}

// FailSwitch crashes switch n: every attached cable goes dead and every
// worm copy held in the switch is lost.
func (f *Fabric) FailSwitch(n topology.NodeID) error {
	s := f.sw[n]
	if s == nil {
		return fmt.Errorf("network: node %d is not a switch", n)
	}
	if s.dead {
		return fmt.Errorf("network: switch %d already failed", n)
	}
	f.fail.FailSwitch(n)
	s.dead = true
	f.wipeSwitch(s)
	f.newEpoch()
	return nil
}

// RestoreSwitch restarts switch n with empty buffers.  Cables to other
// dead switches (or explicitly failed cables) stay dead.
func (f *Fabric) RestoreSwitch(n topology.NodeID) error {
	s := f.sw[n]
	if s == nil {
		return fmt.Errorf("network: node %d is not a switch", n)
	}
	if !s.dead {
		return fmt.Errorf("network: switch %d is not failed", n)
	}
	delete(f.fail.Switches, n)
	s.dead = false
	f.newEpoch()
	return nil
}

// newEpoch applies a change of the failure set: links follow it, the
// topology epoch moves, and every sleeping head wakes to re-prune its
// request against the new liveness.
func (f *Fabric) newEpoch() {
	f.applyLiveness()
	f.epoch++
	f.wakeAllHeads()
	f.activate()
}

// StallHost suspends the transmit side of host h's interface until the
// given time (a host-adapter stall: DMA engine wedged, driver busy).  The
// receive side keeps accepting flits — the paper's simulator propagates no
// backpressure from the host adapter into the network.
func (f *Fabric) StallHost(h topology.NodeID, until des.Time) error {
	hi := f.hosts[h]
	if hi == nil {
		return fmt.Errorf("network: node %d is not a host", h)
	}
	if until > hi.stalledUntil {
		hi.stalledUntil = until
	}
	hi.wake() // its next visit must see the stall
	f.activate()
	return nil
}

// CorruptOnLink damages one in-flight payload flit, scanning links from
// index hint (mod the link count) for determinism.  It returns false when
// no link currently carries a payload flit to corrupt.  The receiving host
// detects the damage on checksum at reassembly and discards the worm.
// Empty links are passed over without probing their slots: they have
// nothing to corrupt, so the same link is picked.
func (f *Fabric) CorruptOnLink(hint int) bool {
	n := len(f.links)
	if n == 0 {
		return false
	}
	if hint < 0 {
		hint = -hint
	}
	for k := 0; k < n; k++ {
		l := f.links[(hint+k)%n]
		if l.dead || l.inFlight == 0 {
			continue
		}
		if l.corrupt() {
			return true
		}
	}
	return false
}

// corrupt marks Bad the clean payload flit in l's lowest-numbered occupied
// slot (send tick mod delay), splitting its run; false when l carries no
// clean payload flit.  The lowest slot is not always the oldest flit: a
// run's lowest slot is its first tick's, unless the run wraps past slot 0.
func (l *dlink) corrupt() bool {
	d := int64(l.delay)
	best, bestT, bestS := -1, int64(0), d
	for i := 0; i < int(l.nruns); i++ {
		r := l.at(i)
		if r.fl.Kind != flit.Payload || r.fl.Bad {
			continue
		}
		t := r.t
		if s := t % d; s+r.n > d {
			t += d - s
		}
		if s := t % d; s < bestS {
			best, bestT, bestS = i, t, s
		}
	}
	if best < 0 {
		return false
	}
	// Run best becomes up to three: before bestT, the damaged flit, after.
	r := l.at(best)
	bad, after := *r, run{r.fl, bestT + 1, r.t + r.n - bestT - 1}
	bad.fl.Bad, bad.t, bad.n = true, bestT, 1
	if bestT > r.t {
		r.n = bestT - r.t
		best++
		l.insert(best, bad)
	} else {
		*r = bad
	}
	if after.n > 0 {
		l.insert(best+1, after)
	}
	return true
}

// applyLiveness reconciles every directional link's dead flag with the
// failure set, killing newly-dead links and reviving newly-live ones.
func (f *Fabric) applyLiveness() {
	for _, l := range f.links {
		want := f.fail.LinkDead(f.G, l.srcNode, l.srcPort)
		switch {
		case want && !l.dead:
			f.killLink(l)
		case !want && l.dead:
			f.reviveLink(l)
		}
	}
}

// killLink marks one direction dead, drops its in-flight flits, clears its
// reverse channel (the sender must drain, not wedge), and terminates the
// truncated worm stub at the downstream end with a forward reset.
func (f *Fabric) killLink(l *dlink) {
	l.dead = true
	// A worm with any flit still in flight here has lost its tail: the
	// downstream copy can never complete.  On long links a whole worm can
	// sit in the pipeline with the sender already done and the receiver
	// still unaware, so neither endpoint path would attribute the loss.
	// The flits are dropped in slot order (send tick mod delay): the
	// in-flight ticks span less than one delay, so the ticks from the
	// first multiple of delay past the oldest one hold the low slots.
	if l.nruns > 0 {
		d := int64(l.delay)
		wrap := (l.at(0).t/d + 1) * d
		for _, low := range [2]bool{true, false} {
			for i := 0; i < int(l.nruns); i++ {
				r := l.at(i)
				lo, hi := r.t, r.t+r.n
				if low {
					lo = max(lo, wrap)
				} else {
					hi = min(hi, wrap)
				}
				if lo < hi {
					f.ctr.FlitsDropped += hi - lo
					f.dropWorm(r.fl.W)
				}
			}
		}
		for i := 0; i < int(l.nruns); i++ {
			r := l.at(i)
			l.mark(r.t, r.n, false)
		}
		l.clear()
	}
	l.back.clear()
	f.inFlight -= l.inFlight
	l.inFlight = 0
	stop := l.stopMask
	l.stopMask = 0
	f.settle.clear(l.id)
	f.linkAct.clear(l.id)
	f.wakeSenders(l, stop)
	// Mark the sender's in-progress worm copies as lost right away (not
	// only when their tails hit the black hole): if the link revives
	// mid-worm, the remaining flits must be recognized downstream as a
	// torn-down stub.  Every lane of the port can hold an independent copy
	// (the physical pipe is shared, the bindings are not), so attribution
	// walks all of them — counting per physical pipe would miss the worms
	// on sibling lanes.
	nvc := f.nvc
	if s := f.sw[l.srcNode]; s != nil {
		base := int(l.srcPort) * nvc
		for v := 0; v < nvc; v++ {
			if o := &s.out[base+v]; o.boundIn >= 0 && s.in[o.boundIn].mode == pmBoundUni {
				f.dropWorm(s.in[o.boundIn].worm)
			}
		}
	} else if h := f.hosts[l.srcNode]; h.cur != nil {
		f.dropWorm(h.cur.W)
	}
	if s := f.sw[l.dstNode]; s != nil {
		// The publish phase skips dead-link ports, so every lane joins the
		// dead index until the link revives.
		base := int(l.dstPort) * nvc
		for v := 0; v < nvc; v++ {
			s.deadIns.set(base + v)
			if !s.dead {
				f.poisonInput(&s.in[base+v])
			}
		}
	} else {
		f.poisonHost(f.hosts[l.dstNode])
	}
}

// reviveLink returns a direction to service.  killLink left it empty in
// both directions, and a dead link takes no flit and no symbol.
func (f *Fabric) reviveLink(l *dlink) {
	l.dead = false
	// The downstream switch resumes publishing on this reverse channel next
	// tick, so make sure it is scheduled.
	if s := f.sw[l.dstNode]; s != nil {
		base := int(l.dstPort) * f.nvc
		for v := 0; v < f.nvc; v++ {
			s.deadIns.clear(base + v)
			// The channel restarted at GO: a lane still wishing STOP
			// re-evaluates its wish and resends it.
			if in := &s.in[base+v]; in.stopWish {
				in.markDirty()
			}
		}
		if !s.dead {
			f.swAct.set(int(s.node))
		}
	}
}

// poisonInput terminates the worm stub at a switch input port whose
// upstream link just died.
//
//   - A port already streaming downstream (pmBoundUni/pmBoundMC) gets a
//     synthetic Bad tail appended to its slack: the remaining buffered
//     flits flow out normally and the Bad tail tears the path down through
//     every switch it crosses, ending in a host-side discard.
//   - A port still decoding or waiting for arbitration aborts in place —
//     nothing has been forwarded, so there is no downstream state to clear.
//   - An idle port with a truncated arrival gets the Bad tail appended so
//     the stub routes, drains, and terminates instead of waiting forever
//     for header bytes that were lost.
func (f *Fabric) poisonInput(in *inPort) {
	switch in.mode {
	case pmBoundUni, pmBoundMC:
		f.dropWorm(in.worm)
		f.appendBadTail(in, in.worm)
	case pmCollect, pmWait:
		f.ctr.FlitsDropped += int64(in.fill)
		f.dropWorm(in.worm)
		in.reset()
	case pmFlush, pmDrop:
		// Already draining; give the drain a terminator in case the real
		// tail was lost upstream.
		if in.fill == 0 || in.newest().Kind != flit.Tail {
			f.appendBadTail(in, in.worm)
		}
	case pmIdle:
		if in.fill == 0 {
			return
		}
		if nw := in.newest(); nw.Kind != flit.Tail {
			f.appendBadTail(in, nw.W)
		}
	}
}

// appendBadTail pushes a synthetic Bad tail for worm w into the slack
// buffer, overwriting the newest flit when the buffer is full (that flit
// belonged to the truncated worm anyway).
func (f *Fabric) appendBadTail(in *inPort, w *flit.Worm) {
	bad := flit.Flit{W: w, Tag: flit.Tag{Kind: flit.Tail, Bad: true}}
	if in.fill >= in.cap {
		f.ctr.FlitsDropped++
		q := &in.slack
		r := q.at(int(q.nruns) - 1)
		if r.n--; r.n == 0 {
			*r = run{}
			q.nruns--
		}
		q.push(bad)
		return
	}
	in.receive(bad)
}

// poisonHost terminates the partially-received worm at a host interface
// whose incoming link just died.
func (f *Fabric) poisonHost(h *hostIf) {
	if w := h.rx.Worm(); w != nil {
		h.discardRx(w, f.K.Now(), &f.ctr.TruncatedDrops)
	}
}

// wipeSwitch drops every worm copy held by a crashed switch and resets all
// of its port state.
func (f *Fabric) wipeSwitch(s *swState) {
	for pi := range s.in {
		in := &s.in[pi]
		if in.inLink == nil {
			continue
		}
		f.dropWorm(in.worm)
		for i := 0; i < int(in.slack.nruns); i++ {
			r := in.slack.at(i)
			f.ctr.FlitsDropped += r.n
			f.dropWorm(r.fl.W)
		}
		in.reset()
		if in.stopWish {
			in.stopWish = false
			s.wishPorts--
		}
	}
	for oi := range s.out {
		s.out[oi].unbind()
	}
	s.nBoundOuts = 0
	// Dead and empty: nothing to tick until a restore puts traffic back
	// through (arrivals re-activate via inPort.receive).
	f.swAct.clear(int(s.node))
}

// reset returns an input port to idle with an empty slack buffer.
func (in *inPort) reset() {
	in.wake()
	in.slack.clear()
	in.fill = 0
	in.setMode(pmIdle)
	// The fill changed without going through pop: re-evaluate the STOP
	// wish at the next publish phase.
	in.markDirty()
	in.worm = nil
	// A port wiped mid-blocked-episode must not suppress the next
	// EvBlocked/EvResumed trace pair after a restore.
	in.blocked = false
	in.mcBuf = in.mcBuf[:0]
	in.mcScan = route.Scanner{}
	in.reqOuts = in.reqOuts[:0]
	in.reqStamps = in.reqStamps[:0]
	in.outs = in.outs[:0]
}

// newest returns the most recently received slack flit (fill must be >0).
func (in *inPort) newest() flit.Flit {
	return in.slack.at(int(in.slack.nruns) - 1).fl
}

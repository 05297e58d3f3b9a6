package network

import (
	"fmt"
	"math/bits"

	"wormlan/internal/des"
	"wormlan/internal/flit"
	"wormlan/internal/topology"
)

// dlink is one direction of a full-duplex cable.  The forward channel is a
// pipeline delay byte-times long; the reverse channel carries the STOP/GO
// control symbols of the downstream slack buffer with the same propagation
// delay (Myrinet sends a STOP or GO symbol on the paired return line when
// the buffer's fill crosses a watermark, and nothing otherwise).  With
// virtual channels (Config.NumVCs > 1) the same physical wire is
// time-multiplexed between lanes: each forward byte-time carries one flit
// tagged with its lane, and each reverse symbol carries a per-lane STOP
// bitmask.
//
// The forward pipeline is stored run-length: a cable of delay d holds the
// flits sent on the last d ticks, and a streaming worm's payload bytes are
// all one flit value, so a run {flit, first send tick, count} stands for
// count consecutive sends of that value.  Runs sit in a runRing in send
// order; a gap between one run's last send tick and the next run's first
// is a bubble (empty byte-times on the wire).  The flit sent at tick t
// still has a slot, t % d, which names its arrival bit and orders the
// fault paths' walks; only its storage is shared.  A 1000-byte cable
// streaming one worm therefore holds a handful of runs, not a thousand
// copies of one payload flit.
//
// The field order groups everything the per-tick hot paths touch — flags,
// the run ring, the slot class, and the flit counters — at the front, so
// delivery and send stay within the first cachelines; the identity fields
// used only for construction, stats snapshots, and traces sit at the end.
type dlink struct {
	f *Fabric

	// dead marks a failed link (explicitly, or because an endpoint switch
	// crashed).  A dead link black-holes everything sent into it: flits are
	// counted as dropped rather than delivered, and senders drain their
	// worms instead of wedging behind a STOP that would never clear.
	dead bool
	// stopMask is the delayed view of the downstream per-lane STOP state,
	// as currently visible at the sending end: bit v set means lane v is
	// stopped.  With NumVCs == 1 only bit 0 is ever used and the mask is
	// exactly the scalar stop-at-sender flag of the VC-free fabric.
	stopMask uint8

	// grantTick/grantVC cache the lane-scheduler decision for this link at
	// grantTick (see swState.laneGrant): the wire carries at most one flit
	// per tick, so the granted lane is computed once and shared by every
	// lane's transmit visit.  The grant is a pure function of the current
	// tick and port state, so it needs no repair on fast-forward or replay.
	grantVC   int8
	grantTick int64

	// cls is the link's delay class: the pipeline slot for the current tick
	// and the arrival bitsets that say which of the class's slots hold a
	// flit.  aw/abit locate this link's bit in a slot's bitset, and in every
	// other link-indexed bitset (Fabric.linkAct).
	cls   *delayClass
	aw    int
	abit  uint64
	delay int

	// The run ring holds the flits in flight, oldest first: the head run's
	// first flit is the next one delivered, exactly delay ticks after it
	// was sent.  Which slots are occupied is this link's bit in the
	// class's arrival bitsets (see occupied) — the one record of
	// occupancy; the runs say what those slots hold.  The ring's inline
	// cell keeps a link whose pipe never holds two runs (every delay-1
	// link) in the cachelines send and deliver already touch.
	runRing
	// back holds the reverse channel's symbols in flight, oldest first: a
	// run of one, sent at tick t with the new STOP mask in fl.B, which
	// becomes stopMask at tick t+delay.  Each symbol flips at least one
	// lane, so a quiet channel holds none; while it holds any, the link
	// sits in Fabric.settle and phase 1 visits it every tick.
	back runRing
	// inFlight counts the flits in flight (the runs' counts summed), so
	// the fabric knows the link still holds data even when no slot is due
	// for delivery.
	inFlight int

	// Exactly one of dstIns/dstHost is non-nil: the resolved delivery
	// target, cached at construction so the per-flit delivery path skips
	// the node-indexed lookups.  dstIns holds the NumVCs input-port lanes
	// of the receiving switch port; a flit is delivered to dstIns[fl.VC].
	dstIns  []inPort
	dstHost *hostIf

	// carried counts flits that have crossed this link (utilization);
	// stalled counts ticks a bound sender was held by STOP backpressure
	// (a napped sender's ticks are added when it wakes, see swState.nap).
	carried int64
	stalled int64

	// id is the link's index in Fabric.links (and its active-bitmap bit).
	id int

	srcNode topology.NodeID
	srcPort topology.PortID
	dstNode topology.NodeID
	dstPort topology.PortID
}

// delayClass groups the links of one propagation delay.  Their pipelines
// share a slot index (now % delay, refreshed once per tick instead of a
// 64-bit modulo at every use) and one slab of arrival bitsets, slot-major:
// arr[s*lw : (s+1)*lw] has bit l.id set when link l's slot s holds a flit.
// Bits are indexed by fabric-wide link ID so phase 1 can OR the current
// slot of every class into one bitset and visit arrivals in link order.
type delayClass struct {
	delay int64
	slot  int
	lw    int
	arr   []uint64
}

// occupied reports whether pipeline slot s holds a flit.
func (l *dlink) occupied(s int) bool { return l.cls.arr[s*l.cls.lw+l.aw]&l.abit != 0 }

// mark sets (on) or clears this link's arrival bits in the slots of the n
// send ticks from t on.  A window's first due slot may belong to a tick
// before 0, whose slot is that of the tick delay later.
func (l *dlink) mark(t, n int64, on bool) {
	c := l.cls
	var set uint64
	if on {
		set = l.abit
	}
	s := int(t % c.delay)
	if s < 0 {
		s += l.delay
	}
	for ; n > 0; n-- {
		w := &c.arr[s*c.lw+l.aw]
		*w = *w&^l.abit | set
		if s++; s == l.delay {
			s = 0
		}
	}
}

// extend appends n copies of fl sent from tick t on, lengthening the tail
// run when fl continues it.
func (l *dlink) extend(fl flit.Flit, t, n int64) {
	if l.nruns > 0 {
		if r := l.at(int(l.nruns) - 1); r.fl == fl && r.t+r.n == t {
			r.n += n
			return
		}
	}
	l.insert(int(l.nruns), run{fl, t, n})
}

// stopped reports whether lane vc is STOP-backpressured as seen from the
// sending end.
func (l *dlink) stopped(vc uint8) bool { return l.stopMask>>vc&1 != 0 }

// wish returns the STOP mask the sender will see once the reverse channel
// drains: the newest symbol's, or stopMask when none is in flight.
func (l *dlink) wish() uint8 {
	if q := &l.back; q.nruns > 0 {
		return q.at(int(q.nruns) - 1).fl.B
	}
	return l.stopMask
}

// signal sends the reverse-channel symbol carrying STOP mask m at tick
// now.  Lanes flipping in the same tick share one symbol.
func (l *dlink) signal(now des.Time, m uint8) {
	q := &l.back
	if q.nruns > 0 {
		if r := q.at(int(q.nruns) - 1); r.t == now {
			r.fl.B = m
			return
		}
	}
	q.insert(int(q.nruns), run{fl: flit.Flit{Tag: flit.Tag{B: m}}, t: now, n: 1})
	l.f.settle.set(l.id)
	l.f.linkAct.set(l.id)
}

// send places a flit on the wire at the given tick.  The caller must send
// at most one flit per link per tick — across all lanes; a second send is
// a model bug.
func (l *dlink) send(now int64, fl flit.Flit) {
	if l.dead {
		// Black hole: the flit falls off the broken cable.  When the tail
		// goes in, the whole worm copy is gone.
		l.f.ctr.FlitsDropped++
		if fl.Kind == flit.Tail {
			l.f.dropWorm(fl.W)
		}
		return
	}
	c := l.cls
	w := &c.arr[c.slot*c.lw+l.aw]
	if *w&l.abit != 0 {
		panic(fmt.Sprintf("network: double send on link %d.%d->%d.%d at t=%d",
			l.srcNode, l.srcPort, l.dstNode, l.dstPort, now))
	}
	*w |= l.abit
	if l.nruns == 0 {
		// Empty pipe (a delay-1 link on every send): start the run in
		// place.
		r := &l.runs[l.head]
		r.fl, r.t, r.n = fl, now, 1
		l.nruns = 1
	} else if r := l.at(int(l.nruns) - 1); r.fl == fl && r.t+r.n == now {
		r.n++
	} else {
		l.insert(int(l.nruns), run{fl, now, 1})
	}
	l.carried++
	l.inFlight++
	l.f.inFlight++
	l.f.linkAct.words[l.aw] |= l.abit
}

// carry sends a worm flit and counts it moving: the send of every data
// path (a hello is a control symbol, sent bare).
func (l *dlink) carry(now int64, fl flit.Flit) {
	l.send(now, fl)
	l.f.moved = true
	l.f.ctr.FlitsCarried++
}

// deliver runs phase 1 for one link: the symbols sent delay ticks ago or
// earlier reach the sender's STOP view, and the flit written delay ticks
// ago (if any) reaches the far end.  Tick calls it only for links with an
// arrival this tick or a symbol in flight; for every other link both
// steps are no-ops.
func (l *dlink) deliver(now des.Time) {
	f := l.f
	c := l.cls
	slot := c.slot
	if q := &l.back; q.nruns > 0 {
		// One symbol falls due per tick while the fabric ticks; after an
		// idle gap every symbol sent before it is due at once.
		m := l.stopMask
		for q.nruns > 0 && q.runs[q.head].t+int64(l.delay) <= now {
			m = q.runs[q.head].fl.B
			q.dropHead()
		}
		if m != l.stopMask {
			changed := m ^ l.stopMask
			l.stopMask = m
			f.wakeSenders(l, changed)
		}
		if q.nruns == 0 {
			f.settle.clear(l.id)
		}
	}
	if w := &c.arr[slot*c.lw+l.aw]; *w&l.abit != 0 {
		*w &^= l.abit
		f.moved = true
		// The due flit is the head run's first, sent delay ticks ago.
		r := &l.runs[l.head]
		fl := r.fl
		if r.n--; r.n == 0 {
			l.dropHead()
		} else {
			r.t++
		}
		l.inFlight--
		f.inFlight--
		switch {
		case fl.Kind == flit.Hello:
			// Control symbol: consumed here, never enters slack buffers or
			// reassemblers.
			f.helloRecv(l, now)
		case l.dstIns != nil:
			l.dstIns[fl.VC].receive(fl)
		default:
			l.dstHost.receive(fl, now)
		}
	}
	if l.inFlight == 0 && l.back.nruns == 0 && l.stopMask == 0 {
		// Empty pipe, quiet reverse channel: nothing for Skip to validate
		// until the next send or symbol re-activates.
		f.linkAct.clear(l.id)
	}
}

// wakeSenders wakes the napped senders of l whose lanes' STOP bits just
// changed: a STOP-held sender may now move, an empty one would now count
// stall ticks.
func (f *Fabric) wakeSenders(l *dlink, changed uint8) {
	s := f.sw[l.srcNode]
	if s == nil {
		if changed&1 != 0 {
			f.hosts[l.srcNode].wake()
		}
		return
	}
	base := int(l.srcPort) * f.nvc
	for ; changed != 0; changed &= changed - 1 {
		if o := &s.out[base+bits.TrailingZeros8(changed)]; o.boundIn >= 0 {
			s.in[o.boundIn].wake()
		}
	}
}

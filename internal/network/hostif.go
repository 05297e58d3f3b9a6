package network

import (
	"fmt"

	"wormlan/internal/des"
	"wormlan/internal/flit"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
)

// hostIf is a host adapter's network interface: it serializes injected
// worms onto the host link and reassembles arriving worms.
//
// Following the paper's simulator ("does not propagate backpressure from
// the host adapter to the network", Section 7), the receive side always
// accepts flits; adapter buffer contention is handled one level up by the
// worm-granularity ACK/NACK protocol of internal/adapter (or, in the
// prototype emulation, by dropping on a finite input ring).
type hostIf struct {
	node    topology.NodeID
	f       *Fabric
	outLink *dlink

	// queue[qhead:] holds the worms waiting for transmission; qhead is
	// advanced instead of re-slicing so the backing array is reused once
	// the queue drains (zero-alloc steady state).
	queue []*flit.Worm
	qhead int
	cur   *flit.Stream
	// stream is cur's backing storage, reused across worms so starting a
	// transmission does not allocate.
	stream flit.Stream

	// napAt is the transmit pass a nap (Fabric.hostNap) began in; the
	// transmit side's activity is Fabric.hostAct, the receive side's
	// Fabric.rxBusy.
	napAt int64

	rx flit.Reassembler

	// stalledUntil freezes the transmit side (a host-adapter stall fault);
	// reception continues normally.
	stalledUntil des.Time
}

func (h *hostIf) receive(fl flit.Flit, now des.Time) {
	if fl.Kind == flit.Tail && fl.Bad {
		// Forward reset: the worm was truncated by a failure upstream.
		// Discard whatever arrived (possibly nothing).
		w := h.rx.Worm()
		if w == nil {
			w = fl.W
		}
		h.discardRx(w, now, &h.f.ctr.TruncatedDrops)
		return
	}
	if h.rx.Worm() == nil && fl.W.RxAborted {
		// Leftover flits of a worm already torn down (e.g. a sender resumed
		// onto a revived link mid-worm).  Not a fresh arrival.
		h.f.ctr.FlitsDropped++
		return
	}
	first := h.rx.Worm() == nil
	done, err := h.rx.Feed(fl)
	if err != nil {
		panic(fmt.Sprintf("network: host %d: %v", h.node, err))
	}
	if first {
		h.f.rxBusy++
	}
	h.f.ctr.FlitsDelivered++
	if first && h.f.Cfg.OnHeadArrival != nil {
		h.f.Cfg.OnHeadArrival(fl.W, h.node, now)
	}
	if fl.Kind == flit.Payload {
		fl.W.RxProgress++
	}
	if !done {
		return
	}
	// A clean tail ends the worm; Complete also holds it to its payload
	// count, so a short worm is never delivered.
	if !h.rx.Complete() {
		return
	}
	if h.rx.Corrupt {
		// Checksum failure: a flit was damaged on the wire.
		h.discardRx(h.rx.Worm(), now, &h.f.ctr.CorruptDrops)
		return
	}
	w := h.rx.Worm()
	w.RxDone = true
	h.resetRx()
	h.f.ctr.Delivered++
	if h.f.rec != nil {
		// Arg is always 1; the pinned Chrome traces hash it.
		h.f.emit(now, trace.EvDelivered, h.node, -1, w.ID, 1)
	}
	if h.f.Cfg.OnDeliver != nil {
		h.f.Cfg.OnDeliver(Delivery{Worm: w, Host: h.node, At: now})
	}
}

// discardRx abandons the in-progress reception of w, bumping the given
// drop-reason counter and notifying the adapter layer.
func (h *hostIf) discardRx(w *flit.Worm, now des.Time, reason *int64) {
	*reason++
	h.f.dropWorm(w)
	h.resetRx()
	if h.f.Cfg.OnDiscard != nil {
		h.f.Cfg.OnDiscard(w, h.node, now)
	}
}

// resetRx clears the reassembler, keeping the fabric's count of in-progress
// receptions in step.
func (h *hostIf) resetRx() {
	if h.rx.Worm() != nil {
		h.f.rxBusy--
	}
	h.rx.Reset()
}

func (h *hostIf) transmit(now des.Time) {
	if now < h.stalledUntil {
		return // adapter stalled: transmit side frozen
	}
	if h.cur == nil {
		if h.qlen() == 0 {
			return
		}
		w := h.qpop()
		if w.Injected == 0 {
			w.Injected = now
		}
		h.stream.Reset(w, w.Header)
		h.cur = &h.stream
		if h.f.rec != nil {
			h.f.emit(now, trace.EvInject, h.node, -1, w.ID, int64(len(w.Header)+w.PayloadLen))
		}
	}
	if from := h.cur.W.PaceFrom; from != nil && from.RxAborted {
		// Cut-through forward of a reception that was aborted: the stream
		// can never finish.  Terminate it with a forward reset if any of it
		// is already on the wire (waiting out backpressure first), or just
		// drop it if nothing has been sent.
		h.abortTx(now)
		return
	}
	if h.outLink.stopped(0) {
		h.outLink.stalled++
		if h.cur.W.PaceFrom == nil {
			// Until GO (or StallHost), every visit is this one again.
			h.nap()
		}
		return
	}
	if !h.cur.CanSend(h.cur.W.PaceFrom) {
		// Cut-through pacing: the upstream copy of this worm has not yet
		// delivered the byte we would transmit next.
		return
	}
	fl, ok := h.cur.Next()
	if !ok {
		h.cur = nil
		return
	}
	h.outLink.carry(now, fl)
	if h.cur.Remaining() == 0 {
		h.cur = nil
	}
}

// qlen returns the number of worms waiting in the injection queue.
func (h *hostIf) qlen() int { return len(h.queue) - h.qhead }

// qpop removes and returns the head of the injection queue.
func (h *hostIf) qpop() *flit.Worm {
	w := h.queue[h.qhead]
	h.queue[h.qhead] = nil
	h.qhead++
	if h.qhead == len(h.queue) {
		h.queue = h.queue[:0]
		h.qhead = 0
	}
	return w
}

// abortTx terminates the current outgoing stream after its pacing source
// was aborted.
func (h *hostIf) abortTx(now des.Time) {
	switch {
	case !h.cur.Started() || h.outLink.dead:
		// Nothing on the wire (or the wire is gone): silent drop.
		h.f.dropWorm(h.cur.W)
		h.cur = nil
	case !h.outLink.stopped(0):
		h.outLink.carry(now, flit.Flit{W: h.cur.W, Tag: flit.Tag{Kind: flit.Tail, Bad: true}})
		h.f.dropWorm(h.cur.W)
		h.cur = nil
	}
	// Backpressured: retry the reset next tick.
}

package network

// Contention-free worm fast-forward.
//
// Most ticks of a contention-free stretch are a pure payload shift: every
// link delivers whatever its due slot holds (a payload flit or nothing),
// every bound crossbar lane receives one payload flit and relays one,
// every transmitting host emits one, every receiving host absorbs one.
// Payload flits carry no modelled content (Flit{W, Payload, VC}), so such
// a tick moves no discrete state — no route, arbitration, STOP/GO change,
// nap, tail or header — only pipeline contents and a handful of monotone
// counters.  A run of such ticks can therefore be applied in one step
// instead of being simulated byte by byte.
//
// Fabric.Skip implements des.Skipper on that observation.  dueWindow
// validates the shape across all active elements and returns how many of
// the next ticks are such a shift; applyWindow then writes those ticks'
// effects.  Anything that would deviate caps the window, and a window of
// zero declines the skip: the fabric falls back to byte-accurate ticking.
// The kernel only asks when no discrete event would interleave, so the
// window is the only safety valve Skip needs.
//
// The shape, element by element:
//
//   - sender, bound crossbar lane (validated: switch live with no routing
//     or resting port; arrival link live and holding flits; slack holding
//     only payload of the bound worm; every branch opPayload on a live
//     link; on a multi-lane fabric each branch's wire exclusively its
//     own): it receives a payload flit every tick of the window (the
//     link rule below) and pops one, so fill, the STOP wish (a pure
//     function of fill) and the slack contents (at most one run, of that
//     payload flit; an emptied ring rewinds its head, so an empty one is
//     the same on both paths) are unchanged, and it sends Flit{W,
//     Payload, o.vc} on every branch.  Its output links are *fed* with
//     that flit.  The lane scheduler has a single ready candidate on an
//     exclusive wire, so the rotating grant cannot diverge.
//   - sender, host (validated: unstalled, not napped, unpaced, inside a
//     payload run): Stream.Advance replaces n Next() calls that would each
//     have produced Flit{W, Payload}; its output link is fed with that
//     flit, and n is capped by the run so the tail never enters the
//     window.
//   - link (validated: live, no symbol in flight, stopMask == 0): the
//     downstream lanes have wished GO for at least a delay, and no symbol
//     is sent inside the window (no receiver's fill moves), so the
//     sender's view never changes.  Ticks now … now+min(n, delay)−1
//     deliver the flits sent delay ticks earlier, which are the pipe's
//     current runs (link.go): the run starting at send tick t arrives at
//     window offset t−(now−delay), and a gap between runs is that many
//     bubbles, empty due slots.  The window ends at the first run the
//     receiver does not absorb — a non-payload or Bad flit, or a flit for
//     a lane or worm the receiver is not bound to or reassembling — and,
//     when the receiving port has a bound lane, at the first bubble: it
//     would nap the relay (or shrink its fill).  A port with two bound
//     lanes starves one of them, so it declines outright.  Past one delay,
//     a fed link delivers its own window sends, which the receiver must
//     absorb as well; an unfed link has drained, which caps the window at
//     delay when it feeds a bound lane.  Apply consumes the due runs
//     (clearing their arrival bits unless a send refills the slot), fills
//     the bubbles' bits on a fed link and appends the fed flit as one run
//     of the last min(n, delay) sends, and keeps inFlight and linkAct in
//     step with what the per-tick deliver and send would leave.
//     Validation and apply cost one step per run, not per byte-time.
//   - receiving host (validated by its link: mid-reassembly of exactly the
//     worm whose payload arrives): Reassembler.AdvancePayload replaces the
//     Feed calls, RxProgress and FlitsDelivered advance as in
//     hostIf.receive; no head, tail, or Bad flit arrives inside the window,
//     so no completion, delivery callback, discard, or rxBusy transition
//     is lost.  A host cut-through-paced *against* this worm is either
//     idle or a transmitting host, whose PaceFrom check declines the skip,
//     so no pacing decision is perturbed.
//
// The idle cap.  With nothing fed and no reception in progress, no flit
// can be absorbed (payload needs a bound lane, which is a sender, or a
// reassembling host), so every window ends before the first due flit and
// the coasting gap before it is skipped whole; the window ticks keep the
// fabric live through inFlight.  With nothing in flight either, the next
// pass deactivates the fabric (or does discrete work), so Skip returns 0
// before validating: a skip there would count ticks, and fire kernel
// Observe callbacks, that a non-skipping run never executes.
//
// Resting elements (active.go) decline.  A sleeping head or napped lane is
// in its switch's restIns and a napped host in hostNap; the walk rejects
// both, and while Fabric.heads or Fabric.naps is non-zero Skip returns 0
// without the walk, setting the same skipHold a failed walk would, so the
// tick stays the exact account of the napped senders' stall ticks (no
// skip spans a nap).  Under the wormcheck tag Skip still runs the walk
// there and panics if it would have passed, and re-derives every checked
// invariant right after each applied window.
//
// No trace events fire inside a window (EvStop/EvGo need a wish flip,
// EvInject a stream start, EvTailDrained/EvDelivered a tail, EvBlocked an
// arbitration), so the skip is exact even with a Recorder attached.  The
// window is also capped by the kernel (next queue event, deadline), so the
// first non-steady tick — a tail entering the wire, a header arriving, an
// arbitration, a STOP crossing — is always simulated byte-accurately.

import (
	"math/bits"

	"wormlan/internal/des"
	"wormlan/internal/flit"
)

// skipRetryTicks is how long Skip holds off after a failed validation.
// Congested stretches would otherwise pay the validation walk every tick
// for nothing; the hold is deterministic, and delaying a skip is
// unobservable (the skipped ticks are state-identical whenever they start).
// Picked by A/B on shufflenet-longlink (16 beat 64), where windows end at
// every header or tail arrival and a long hold re-ticks much of the next.
const skipRetryTicks = 16

// Skip implements des.Skipper: it advances the fabric by up to max whole
// ticks in one step when the coming ticks are provably a payload shift,
// returning the number of ticks applied (0 when the fabric must keep
// byte-ticking).
func (f *Fabric) Skip(now des.Time, max des.Time) des.Time {
	if f.hello != nil || f.Cfg.DisableFastForward || now < f.skipHold {
		// The hello engine does per-tick work (due checks, deferrals) that
		// fast-forward does not model; detection runs tick for real.
		return 0
	}
	if f.rxBusy == 0 && f.inFlight == 0 && f.hostAct.empty() {
		// The idle cap (see the header): nothing fed, receiving or in
		// flight.
		return 0
	}
	if f.heads > 0 || f.naps > 0 {
		// A resting element never passes validation (see the header); the
		// decline and its hold are the ones the validation walk would make.
		if wormcheckEnabled {
			f.wormcheckRestDeclines(now, max)
		}
		f.skipHold = now + skipRetryTicks
		return 0
	}
	n := f.dueWindow(now, max)
	if n == 0 {
		f.skipHold = now + skipRetryTicks
		return 0
	}
	f.applyWindow(now, n)
	if wormcheckEnabled {
		f.wormcheckTick(now + n - 1)
	}
	f.skips++
	f.skippedTicks += int64(n)
	return n
}

// dueWindow validates the shift shape over every active element and
// returns how many ticks from now (at most max) it holds for; 0 when
// anything deviates at once.  It records the fed links in f.fed/f.feed
// for applyWindow and points the delay classes' slots at now (every Tick
// does the same); it changes nothing else.
func (f *Fabric) dueWindow(now des.Time, max des.Time) des.Time {
	n := max
	for i := range f.classes {
		c := &f.classes[i]
		c.slot = int(now % c.delay)
	}
	clear(f.fed.words)

	// Crossbar senders.
	for wi, w := range f.swAct.words {
		for ; w != 0; w &= w - 1 {
			s := f.sw[wi<<6+bits.TrailingZeros64(w)]
			if s.dead || !s.routeIns.empty() || !s.restIns.empty() {
				return 0
			}
			for bw, b := range s.boundIns.words {
				for ; b != 0; b &= b - 1 {
					in := &s.in[bw<<6+bits.TrailingZeros64(b)]
					if il := in.inLink; il == nil || il.dead || !f.linkAct.has(il.id) {
						// No arrival this tick: the relay would nap.
						return 0
					}
					want := flit.Flit{W: in.worm, Tag: flit.Tag{Kind: flit.Payload, VC: in.vc}}
					if q := &in.slack; q.nruns > 1 || q.nruns == 1 && q.runs[q.head].fl != want {
						return 0
					}
					for _, oi := range in.outs {
						o := &s.out[oi]
						if o.phase != opPayload || o.link.dead {
							return 0
						}
						for v := 0; f.nvc > 1 && v < f.nvc; v++ {
							// A bound sibling lane would contend for the wire
							// and the rotating lane grant would interleave.
							if o.base+v != oi && s.out[o.base+v].boundIn >= 0 {
								return 0
							}
						}
						f.fed.set(o.link.id)
						f.feed[o.link.id] = flit.Flit{W: in.worm, Tag: flit.Tag{Kind: flit.Payload, VC: o.vc}}
					}
				}
			}
		}
	}

	// Host senders.
	for wi, w := range f.hostAct.words {
		for ; w != 0; w &= w - 1 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			h := f.hosts[ni]
			if f.hostNap.has(ni) || h.stalledUntil > now || h.cur == nil || h.cur.W.PaceFrom != nil ||
				h.outLink.dead {
				return 0
			}
			run := des.Time(h.cur.PayloadRun())
			if run < 1 {
				return 0
			}
			n = min(n, run)
			f.fed.set(h.outLink.id)
			f.feed[h.outLink.id] = flit.Flit{W: h.cur.W, Tag: flit.Tag{Kind: flit.Payload}}
		}
	}

	// Links: every link holding state or fed this window.
	for wi := range f.linkAct.words {
		for w := f.linkAct.words[wi] | f.fed.words[wi]; w != 0; w &= w - 1 {
			li := wi<<6 + bits.TrailingZeros64(w)
			if n = f.links[li].dueCap(now, n, f.fed.has(li)); n == 0 {
				return 0
			}
		}
	}
	return n
}

// dueCap caps n at the first tick of the window from now whose delivery
// on l the receiver would not absorb as a pure shift (see the header);
// fed says a sender refills l with f.feed[l.id] every tick of the window.
func (l *dlink) dueCap(now, n des.Time, fed bool) des.Time {
	f := l.f
	if l.dead || l.back.nruns != 0 || l.stopMask != 0 {
		return 0
	}
	// want is the one flit value the receiver absorbs; a host ignores the
	// lane tag.  A nil worm absorbs nothing.  bubbles says an empty slot
	// is a no-op at the receiver.
	var want flit.Flit
	h := l.dstHost
	bubbles := true
	if h != nil {
		want = flit.Flit{W: h.rx.Worm(), Tag: flit.Tag{Kind: flit.Payload}}
	} else {
		s := f.sw[l.dstNode]
		if s.dead {
			return 0
		}
		for v := range l.dstIns {
			in := &l.dstIns[v]
			if !s.boundIns.has(in.idx) {
				continue
			}
			if !bubbles {
				return 0
			}
			bubbles = false
			want = flit.Flit{W: in.worm, Tag: flit.Tag{Kind: flit.Payload, VC: in.vc}}
		}
	}
	absorbs := func(fl flit.Flit) bool {
		if h != nil {
			fl.VC = 0
		}
		return want.W != nil && fl == want
	}

	// Walk the runs due inside the first delay ticks: the flit sent at
	// tick base+k arrives at window offset k, and a gap before a run is
	// that many empty due slots.
	m := min(n, des.Time(l.delay))
	base := now - des.Time(l.delay)
	k := des.Time(0) // offsets before k are absorbed
	for i := 0; i < int(l.nruns); i++ {
		r := l.at(i)
		off := r.t - base
		if off >= m {
			break
		}
		if off > k && !bubbles {
			return k
		}
		if !absorbs(r.fl) {
			return off
		}
		k = off + r.n
	}
	if k < m && !bubbles {
		return k
	}
	if n > m && (fed && !absorbs(f.feed[l.id]) || !fed && !bubbles) {
		// Past one delay the arrivals are the window's own sends (or, on
		// an unfed link, nothing).
		return m
	}
	return n
}

// applyWindow advances the fabric by n ticks that dueWindow proved a pure
// shift: pipeline slots and arrival bits, the sending streams, the
// receiving reassemblers, and every counter the skipped passes would have
// moved.  Switch ports need nothing: each receives and relays one payload
// flit per tick, so their state is unchanged.
func (f *Fabric) applyWindow(now, n des.Time) {
	last := des.Time(-1) // last window tick that moved a flit
	fedLinks := 0
	for wi := range f.linkAct.words {
		for w := f.linkAct.words[wi] | f.fed.words[wi]; w != 0; w &= w - 1 {
			li := wi<<6 + bits.TrailingZeros64(w)
			l := f.links[li]
			fed := f.fed.has(li)
			got, at := l.shift(now, n, fed)
			if fed {
				fedLinks++
			}
			last = max(last, at)
			if h := l.dstHost; h != nil && got > 0 {
				h.rx.AdvancePayload(got)
				h.rx.Worm().RxProgress += got
				f.ctr.FlitsDelivered += int64(got)
			}
			if l.inFlight == 0 {
				f.linkAct.clear(li)
			}
		}
	}
	f.hostAct.forEach(func(ni int) {
		f.hosts[ni].cur.Advance(int(n))
	})
	f.ctr.FlitsCarried += n * int64(fedLinks)
	if f.swBound != nil {
		f.swAct.forEach(func(ni int) {
			s := f.sw[ni]
			f.swBound[s.node] += n * int64(s.nBoundOuts)
		})
		f.mticks += n
	}
	if last >= 0 {
		f.lastMove = now + last
	}
}

// shift applies the n window ticks from now to l's pipeline: the runs due
// are delivered, and a fed link's sends refill the slots they vacate (and
// every bubble) with f.feed[l.id]; past one delay a fed link delivers its
// own sends.  It returns the number of flits delivered and the window
// offset of the last tick that moved a flit on l (-1: none).
func (l *dlink) shift(now, n des.Time, fed bool) (got int, at des.Time) {
	f := l.f
	m := min(n, des.Time(l.delay))
	base := now - des.Time(l.delay) // send tick of the flit due now
	end := base + m                 // first send tick not due in the window
	at = -1
	e := base // send ticks before e are accounted for
	for l.nruns > 0 {
		r := &l.runs[l.head]
		if r.t >= end {
			break
		}
		c := min(r.t+r.n, end) - r.t
		if fed {
			l.mark(e, r.t-e, true) // the bubbles before r are refilled
		} else {
			l.mark(r.t, c, false)
		}
		got += int(c)
		at = r.t + c - 1 - base
		e = r.t + c
		if c < r.n {
			r.t, r.n = e, r.n-c
			break
		}
		l.dropHead()
	}
	if fed {
		// Every window slot now holds a flit; the m - got refills of empty
		// slots are new.  The pipe keeps the last min(n, delay) sends.
		l.mark(e, end-e, true)
		l.extend(f.feed[l.id], now+n-m, m)
		l.inFlight += int(m) - got
		f.inFlight += int(m) - got
		l.carried += n
		f.linkAct.set(l.id)
		got += int(n - m)
		at = n - 1 // the sender moves a flit every tick
	} else {
		l.inFlight -= got
		f.inFlight -= got
	}
	return got, at
}

// SkipStats reports how many times fast-forward engaged and how many ticks
// it absorbed in total — a diagnostic for tests and benchmarks, kept out
// of Counters so skipping and non-skipping runs stay comparable.
func (f *Fabric) SkipStats() (skips, ticks int64) { return f.skips, f.skippedTicks }

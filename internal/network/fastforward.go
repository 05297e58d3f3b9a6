package network

// Contention-free worm fast-forward.
//
// When every active element of the fabric is in a *steady streaming* state,
// one tick is a pure shift: every active link delivers one clean payload
// flit and is refilled with one, every bound crossbar port pops one and
// sends one, every transmitting host emits one, every receiving host
// absorbs one.  Payload flits carry no modelled content (Flit{W, Payload}),
// so the post-tick state is bit-identical to the pre-tick state except for
// a handful of monotone counters — which means a run of such ticks can be
// applied as one multiplication instead of being simulated byte by byte.
//
// Fabric.Skip implements des.Skipper on that observation.  It validates the
// steady shape across all active elements, and if anything at all deviates
// — a header or tail in flight, a partially filled pipeline, a STOP
// anywhere (standing, in flight, or settling), a port still routing or
// arbitrating, a host between worms, paced by a cut-through reception, or
// stalled, a hello engine running — it declines, and the fabric falls back
// to byte-accurate ticking.  The kernel only asks when no discrete event
// would interleave, so declining is the only safety valve Skip needs.
//
// Exactness argument, per element class, for each skipped tick:
//
//   - link (validated: alive, inFlight == delay, reverse ring uniformly GO,
//     sender view GO, every slot a clean payload): phase 1 delivers
//     pipe[slot] and phase 3 writes an identical payload flit of the same
//     worm back into the same slot, so the pipe, its arrival bits, and
//     inFlight are unchanged; carried += 1 per tick.
//   - switch port (validated: pmBound*, pure-payload slack, feeding link
//     full, every branch opPayload on a full live link): receives one payload and pops one, so fill, the head-relative
//     window contents, and the STOP wish (a pure function of fill) are
//     unchanged — including the common fill == 0 standing state, where
//     the lane is a pure relay of the flit arriving that same tick; the
//     publish phase re-clears the dirty bit and writes nothing (ring already uniform, pendIns empty).  The slack ring's
//     head index is deliberately left in place: the occupied window holds
//     fill copies of one flit value and the vacated cells are zero on both
//     paths, so the rotation is unobservable — every read is head-relative.
//   - transmitting host (validated: unstalled, unpaced, mid-payload-run):
//     Stream.Advance replaces n Next() calls that would each have produced
//     Flit{W, Payload}; FlitsCarried += 1 per send, as in hostIf.transmit.
//   - receiving host (validated: mid-reassembly of exactly the worm whose
//     payload fills the arrival link): Reassembler.AdvancePayload replaces
//     n Feed calls; no head, tail, or Bad flit can arrive inside the
//     window, so no completion, delivery callback, discard, or rxBusy
//     transition is lost.  RxProgress advances as in hostIf.receive —
//     and any host cut-through-paced *against* this worm is either idle
//     (not ticking) or declines the skip via its PaceFrom check, so no
//     pacing decision is perturbed.
//
// Feeder closure: a full pipe does NOT by itself imply its sender will
// refill it — the validation must prove every active link is fed this
// tick.  Every validated feeder (a bound output branch, a transmitting
// host) feeds exactly one distinct link, and every fed link is active
// (inFlight > 0 keeps it in linkAct), so feeders ≤ active links with
// equality exactly when every active link is refilled; Skip counts both
// sides and declines on mismatch.  Symmetrically, every active link's
// delivery must land where the steady shape expects it: on a bound port of
// an active switch (an idle port would route — new work) or on a host
// mid-reassembly of that worm.
//
// Virtual channels: the steady shape additionally requires every active
// wire to stream exactly one lane (a uniform-VC pipe), every bound lane to
// be fed by its own arrival wire, and every bound output lane to own its
// wire exclusively (no bound sibling).  Under those conditions the
// rotating lane grant has a single candidate every tick, so multiplexing
// decisions cannot diverge inside the window; any lane interleaving
// declines the skip instead.  A worm switching lanes mid-route (dateline
// crossing) is still steady: each wire on its path carries one lane's
// flits, just not the same lane on every hop.
//
// Resting elements (active.go) decline without the walk.  A sleeping head
// is a pmWait port, which the switch validation rejects as arbitrating; a
// STOP-held lane or host fails the GO checks on its link; an empty napped
// lane sent nothing this tick, so its outgoing pipe is not full (or, on a
// multi-lane wire, a sibling lane sent and the wire is shared).  So
// while Fabric.heads or Fabric.naps is non-zero Skip returns 0 and sets
// the same skipHold a failed walk would, and the tick stays the exact
// account of the napped senders' stall ticks (no skip spans a nap).
// Under the wormcheck tag Skip still runs the walk there and panics if it
// would have passed.
//
// No trace events fire on any of these paths (EvStop/EvGo need a wish
// flip, EvInject a stream start, EvTailDrained/EvDelivered a tail,
// EvBlocked an arbitration), so the skip is exact even with a Recorder
// attached.  The skip length is capped by the kernel (next queue event,
// deadline) and by every transmitting stream's remaining payload run, so
// the first non-steady tick — a tail entering the wire, an arbitration, a
// STOP crossing — is always simulated byte-accurately.

import (
	"wormlan/internal/des"
	"wormlan/internal/flit"
)

// skipRetryTicks is how long Skip holds off after a failed validation.
// Congested stretches would otherwise pay the full validation scan every
// tick for nothing; the hold is deterministic, and delaying a skip is
// unobservable (the skipped ticks are state-identical whenever they start).
const skipRetryTicks = 64

// Skip implements des.Skipper: it advances the fabric by up to max whole
// ticks in one step when the current state is provably steady, returning
// the number of ticks applied (0 when the fabric must keep byte-ticking).
func (f *Fabric) Skip(now des.Time, max des.Time) des.Time {
	if f.hello != nil || f.Cfg.DisableFastForward || now < f.skipHold {
		// The hello engine does per-tick work (due checks, deferrals) that
		// fast-forward does not model; detection runs tick for real.
		return 0
	}
	if f.rxBusy == 0 && f.linkAct.empty() && f.swAct.empty() && f.hostAct.empty() {
		// Nothing is active: the next tick pass returns false and
		// deactivates the fabric.  Skipping here would count idle ticks
		// (and fire kernel Observe callbacks) that a non-skipping run
		// never executes, breaking the ticks/dispatched equivalence.
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
	n, nLinks := f.steadyWindow(now, max)
	if n == 0 {
		f.skipHold = now + skipRetryTicks
		return 0
	}

	// Steady: apply n ticks' worth of monotone counter movement.  Nothing
	// else changes — that is the definition the validation just proved.
	f.linkAct.forEach(func(li int) {
		l := f.links[li]
		l.carried += n
		if h := f.hosts[l.dstNode]; h != nil {
			h.rx.AdvancePayload(int(n))
			h.rx.Worm().RxProgress += int(n)
			f.ctr.FlitsDelivered += n
		}
	})
	f.hostAct.forEach(func(ni int) {
		f.hosts[ni].cur.Advance(int(n))
	})
	f.ctr.FlitsCarried += n * int64(nLinks)
	if f.swBound != nil {
		f.swAct.forEach(func(ni int) {
			s := f.sw[ni]
			f.swBound[s.node] += n * int64(s.nBoundOuts)
		})
		f.mticks += n
	}
	if nLinks > 0 {
		f.lastMove = now + n - 1
	}
	f.skips++
	f.skippedTicks += int64(n)
	return n
}

// steadyWindow validates the steady shape over every active element and
// returns how many ticks (at most max) are a pure shift, with the number
// of active links; n is 0 when anything deviates.  It changes nothing.
func (f *Fabric) steadyWindow(now des.Time, max des.Time) (n des.Time, nLinks int) {
	n = max
	steady := true
	nFed := 0

	// Links: every active link must be a full pipeline of clean payload
	// (necessarily all of one worm: a second worm would be separated by a
	// tail and a header) with a clean reverse channel, delivering into a
	// bound switch port or a matching host reassembly.
	f.linkAct.forEach(func(li int) {
		if !steady {
			return
		}
		l := f.links[li]
		if l.dead || l.inFlight != l.delay || l.ctrlTrues != 0 || l.stopMask != 0 {
			steady = false
			return
		}
		// Every slot a clean payload, all on one lane: a wire interleaving
		// lanes is not a pure shift (the lane scheduler alternates), so a
		// mixed pipe declines rather than risking a wrong fast-forward.
		vc := l.pipe[0].VC
		for s := 0; s < l.delay; s++ {
			if !l.occupied(s) || l.pipe[s].Kind != flit.Payload || l.pipe[s].Bad ||
				l.pipe[s].VC != vc {
				steady = false
				return
			}
		}
		if s := f.sw[l.dstNode]; s != nil {
			// An idle destination lane would start routing on arrival;
			// only a bound lane of an active switch absorbs a payload
			// flit steadily.
			if !f.swAct.has(int(l.dstNode)) || s.dead || !s.boundIns.has(int(l.dstPort)*f.nvc+int(vc)) {
				steady = false
				return
			}
		} else if f.hosts[l.dstNode].rx.Worm() != l.pipe[0].W {
			// The receiving host must already be mid-reassembly of exactly
			// this worm (its header preceded the payload in flight).
			steady = false
			return
		}
		nLinks++
	})
	if !steady {
		return 0, 0
	}

	// Switches: no port may be routing, arbitrating, draining, or settling
	// a reverse channel; bound ports must be pure payload relays with every
	// branch streaming into a full live link.
	f.swAct.forEach(func(ni int) {
		if !steady {
			return
		}
		s := f.sw[ni]
		if s.dead || !s.routeIns.empty() || !s.pendIns.empty() {
			steady = false
			return
		}
		s.boundIns.forEach(func(pi int) {
			if !steady {
				return
			}
			in := &s.in[pi]
			il := in.inLink
			// fill == 0 is the common standing state of an uncontended
			// relay: the arrival (phase 1) and the pop (phase 3) cancel
			// within each tick, so the boundary fill sits at zero and the
			// lane forwards the flit that arrived that same tick.  That is
			// still a pure shift as long as the arrival wire is full and
			// live — which the next check demands regardless of fill.
			if il == nil || il.dead || il.inFlight != il.delay {
				steady = false
				return
			}
			if il.pipe[0].VC != in.vc {
				// The shared arrival wire is streaming a sibling lane: this
				// lane receives nothing during the window, so its fill would
				// drain, not hold.
				steady = false
				return
			}
			for k := 0; k < in.fill; k++ {
				i := in.head + k
				if i >= in.cap {
					i -= in.cap
				}
				if in.slack[i].Kind != flit.Payload || in.slack[i].Bad {
					steady = false
					return
				}
			}
			for _, oi := range in.outs {
				o := &s.out[oi]
				if o.phase != opPayload || o.link.dead || o.link.inFlight != o.link.delay {
					steady = false
					return
				}
				if f.nvc > 1 {
					// The outgoing wire must be exclusively this lane's:
					// a bound sibling lane would contend for the wire and
					// the rotating lane grant would interleave them.
					for v := 0; v < f.nvc; v++ {
						if o.base+v != oi && s.out[o.base+v].boundIn >= 0 {
							steady = false
							return
						}
					}
				}
			}
			nFed += len(in.outs)
		})
	})
	if !steady {
		return 0, 0
	}

	// Transmitting hosts: unstalled, unpaced, and inside a payload run
	// long enough that no tail or header byte enters the window.
	f.hostAct.forEach(func(ni int) {
		if !steady {
			return
		}
		h := f.hosts[ni]
		if h.stalledUntil > now || h.cur == nil || h.cur.W.PaceFrom != nil {
			steady = false
			return
		}
		run := h.cur.PayloadRun()
		if run < 1 || h.outLink.dead || h.outLink.inFlight != h.outLink.delay {
			steady = false
			return
		}
		if des.Time(run) < n {
			n = des.Time(run)
		}
		nFed++
	})
	// Feeder closure: each feeder feeds one distinct active link, so
	// equality means every active link is refilled every tick.  Any
	// streaming state must be rooted at a transmitting host (payload has no
	// other source), whose remaining run then caps n; a linkful fabric with
	// no active host cannot be steady, and the guard keeps n finite.
	if !steady || nFed != nLinks || (nLinks > 0 && f.hostAct.empty()) {
		return 0, 0
	}
	return n, nLinks
}

// SkipStats reports how many times fast-forward engaged and how many ticks
// it absorbed in total — a diagnostic for tests and benchmarks, kept out
// of Counters so skipping and non-skipping runs stay comparable.
func (f *Fabric) SkipStats() (skips, ticks int64) { return f.skips, f.skippedTicks }

//go:build wormcheck

// Runtime invariant checker: `go test -tags wormcheck` re-runs the whole
// suite with wormcheckTick auditing the fabric's redundant state at the
// end of every tick and right after every fast-forward window.  The static analyzers (internal/lint) prove shape
// properties of the code; this checker proves the incremental indexes the
// hot path trusts — active sets, STOP/GO wish counts, crossbar binding
// counts, ring-buffer occupancy counters — actually agree with the ground
// truth they summarize, on every tick of every scenario the tests drive.
// A divergence panics immediately, at the tick it first exists, instead
// of surfacing thousands of ticks later as a wedged worm or a drifted
// counter.
package network

import (
	"fmt"

	"wormlan/internal/des"
	"wormlan/internal/flit"
)

const wormcheckEnabled = true

// wormcheckTick validates the fabric's derived state against first
// principles.  It runs after phase 4, when every per-tick settling rule
// has had its chance, and after Skip applies a window, whose state is
// the one its last tick would leave; all checks therefore hold
// unconditionally here.
func (f *Fabric) wormcheckTick(now des.Time) {
	f.checkLinks(now)
	f.checkSwitches(now)
	f.checkHosts(now)
}

// wormcheckRestDeclines proves Skip's shortcut: with anything resting, the
// validation walk it stands in for must decline too.
func (f *Fabric) wormcheckRestDeclines(now, max des.Time) {
	if n := f.dueWindow(now, max); n != 0 {
		f.wormfail(now, "fast-forward validation passes with %d sleeping heads and %d naps", f.heads, f.naps)
	}
}

func (f *Fabric) wormfail(now des.Time, format string, args ...any) {
	panic(fmt.Sprintf("network: wormcheck t=%d: %s", now, fmt.Sprintf(format, args...)))
}

// checkLinks: pipeline occupancy counters and reverse-channel STOP counts
// must equal direct recounts of the rings (occupancy being the arrival
// bits), empty slots must be zeroed, a link outside the settle set must
// read a uniform ring, and a link still holding state must be in the
// active set.
func (f *Fabric) checkLinks(now des.Time) {
	total := 0
	for _, l := range f.links {
		occ := 0
		for s := 0; s < l.delay; s++ {
			if l.occupied(s) {
				occ++
			}
		}
		total += occ
		if occ != l.inFlight {
			f.wormfail(now, "link %d.%d->%d.%d inFlight=%d but %d arrival bits set",
				l.srcNode, l.srcPort, l.dstNode, l.dstPort, l.inFlight, occ)
		}
		if !f.settle.has(l.id) && !l.settled() {
			f.wormfail(now, "link %d.%d->%d.%d outside the settle set with ctrlOnes=%v stopMask=%#x: its ring would not be read",
				l.srcNode, l.srcPort, l.dstNode, l.dstPort, l.ctrlOnes, l.stopMask)
		}
		if l.dead {
			// killLink wipes everything; reconfirm so a flit can never ride
			// a dead wire into a later revive.
			if l.inFlight != 0 || l.ctrlTrues != 0 || l.stopMask != 0 || f.settle.has(l.id) {
				f.wormfail(now, "dead link %d.%d->%d.%d holds state: inFlight=%d ctrlTrues=%d stopMask=%#x settle=%v",
					l.srcNode, l.srcPort, l.dstNode, l.dstPort, l.inFlight, l.ctrlTrues, l.stopMask, f.settle.has(l.id))
			}
			continue
		}
		var ones [4]int32
		for s := 0; s < l.delay; s++ {
			if !l.occupied(s) && l.pipe[s] != (flit.Flit{}) {
				f.wormfail(now, "link %d.%d->%d.%d slot %d unoccupied but not zeroed",
					l.srcNode, l.srcPort, l.dstNode, l.dstPort, s)
			}
			for v := uint8(0); v < 4; v++ {
				if l.ctrl[s]>>v&1 != 0 {
					ones[v]++
				}
			}
		}
		trues := 0
		for v := 0; v < 4; v++ {
			if ones[v] != l.ctrlOnes[v] {
				f.wormfail(now, "link %d.%d->%d.%d ctrlOnes[%d]=%d but %d STOP bits in ring",
					l.srcNode, l.srcPort, l.dstNode, l.dstPort, v, l.ctrlOnes[v], ones[v])
			}
			trues += int(ones[v])
		}
		if trues != l.ctrlTrues {
			f.wormfail(now, "link %d.%d->%d.%d ctrlTrues=%d but %d STOP bits in ring",
				l.srcNode, l.srcPort, l.dstNode, l.dstPort, l.ctrlTrues, trues)
		}
		if (l.inFlight > 0 || l.ctrlTrues > 0 || l.stopMask != 0) && !f.linkAct.has(l.id) {
			f.wormfail(now, "link %d.%d->%d.%d holds state (inFlight=%d ctrlTrues=%d stopMask=%#x) but is not active: lost wakeup",
				l.srcNode, l.srcPort, l.dstNode, l.dstPort, l.inFlight, l.ctrlTrues, l.stopMask)
		}
	}
	if total != f.inFlight {
		f.wormfail(now, "fabric inFlight=%d but %d arrival bits set in total", f.inFlight, total)
	}
}

// checkSwitches: slack occupancy windows, post-publish STOP/GO wish
// consistency, the wishPorts count, the route/bound/pend/dead port
// indexes, and crossbar reservation-release balance.
func (f *Fabric) checkSwitches(now des.Time) {
	heads, naps := 0, 0
	for _, s := range f.sw {
		if s == nil {
			continue
		}
		if (!s.dirtyIns.empty() || !s.pendIns.empty()) && !f.pubSw.has(int(s.node)) {
			f.wormfail(now, "switch %d has a dirty or pending STOP/GO port but is not in pubSw: lost publish", s.node)
		}
		wishes := 0
		for pi := range s.in {
			in := &s.in[pi]
			if in.stopWish {
				wishes++
			}
			switch in.rest {
			case asleep:
				heads++
			case napEmpty, napStopped:
				naps++
			}
			f.checkRest(now, s, in)
			f.checkSlack(now, s, in)
			dead := in.inLink != nil && in.inLink.dead
			if s.deadIns.has(pi) != dead {
				f.wormfail(now, "switch %d lane %d deadIns=%v but link dead=%v",
					s.node, pi, s.deadIns.has(pi), dead)
			}
			if dead && s.pendIns.has(pi) {
				f.wormfail(now, "switch %d lane %d pending STOP/GO settle on a dead link", s.node, pi)
			}
			if s.dead {
				continue
			}
			f.checkPortIndexes(now, s, in, pi)
			// Post-publish STOP/GO: a live lane's wish is a pure function of
			// fill with hysteresis, re-evaluated by phase 4 whenever it could
			// have flipped.  Dead upstream links freeze the wish by design
			// (the publish phase skips them until revival).
			if in.inLink != nil && !in.inLink.dead {
				if in.fill >= in.stopMark && !in.stopWish {
					f.wormfail(now, "switch %d lane %d fill=%d at STOP mark %d without a STOP wish",
						s.node, pi, in.fill, in.stopMark)
				}
				if in.fill <= in.goMark && in.stopWish {
					f.wormfail(now, "switch %d lane %d fill=%d at GO mark %d with a standing STOP wish",
						s.node, pi, in.fill, in.goMark)
				}
			}
		}
		if wishes != s.wishPorts {
			f.wormfail(now, "switch %d wishPorts=%d but %d lanes wish STOP", s.node, s.wishPorts, wishes)
		}
		f.checkCrossbar(now, s)
		if !s.dead {
			busy := s.wishPorts > 0 || !s.pendIns.empty() ||
				anyOr(&s.routeIns, &s.boundIns) || s.nBoundOuts > 0
			if busy && !f.swAct.has(int(s.node)) {
				f.wormfail(now, "switch %d has pending work but is not active: lost wakeup", s.node)
			}
		}
	}
	f.hostNap.forEach(func(int) { naps++ })
	if heads != f.heads || naps != f.naps {
		f.wormfail(now, "heads=%d naps=%d but %d sleeping heads and %d napped senders", f.heads, f.naps, heads, naps)
	}
}

// checkRest: a resting port is exactly one whose skipped visits are
// no-ops.  A sleeping head has no grantable request (some requested
// output bound, pruned at this epoch) and is not one the
// iSLIP cell or adaptive selection polls; a napped lane is a unicast
// relay held by STOP, or empty and free to send, on a wire no fork shares.
func (f *Fabric) checkRest(now des.Time, s *swState, in *inPort) {
	if s.restIns.has(in.idx) != (in.rest != awake) {
		f.wormfail(now, "switch %d lane %d rest=%d but restIns=%v", s.node, in.idx, in.rest, s.restIns.has(in.idx))
	}
	switch in.rest {
	case asleep:
		if in.mode != pmWait || in.adaptive || (s.arb != nil && len(in.reqOuts) == 1) {
			f.wormfail(now, "switch %d lane %d sleeping head in mode %d (adaptive=%v, %d requests)",
				s.node, in.idx, in.mode, in.adaptive, len(in.reqOuts))
		}
		if in.prunedAt != f.epoch+1 {
			f.wormfail(now, "switch %d lane %d sleeping head not pruned at epoch %d", s.node, in.idx, f.epoch)
		}
		bound := false
		for _, oi := range in.reqOuts {
			if s.out[oi].boundIn >= 0 {
				bound = true
			}
		}
		if !bound {
			f.wormfail(now, "switch %d lane %d sleeping head has a grantable request %v", s.node, in.idx, in.reqOuts)
		}
	case napEmpty, napStopped:
		if in.mode != pmBoundUni {
			f.wormfail(now, "switch %d lane %d napped lane in mode %d", s.node, in.idx, in.mode)
		}
		o := in.ou
		stopped := o.link.stopped(o.vc)
		if in.rest == napStopped && !stopped {
			f.wormfail(now, "switch %d lane %d napped lane is not STOP-held", s.node, in.idx)
		}
		if in.rest == napEmpty && (stopped || in.fill != 0 || o.phase != opPayload) {
			f.wormfail(now, "switch %d lane %d napped lane has something to relay (fill=%d phase=%d stopped=%v)",
				s.node, in.idx, in.fill, o.phase, stopped)
		}
		for v := 0; f.nvc > 1 && v < f.nvc; v++ {
			if b := s.out[o.base+v].boundIn; b >= 0 && s.in[b].mode == pmBoundMC {
				f.wormfail(now, "switch %d lane %d napped lane shares its wire with a fork", s.node, in.idx)
			}
		}
	}
}

// checkSlack: fill within bounds and every slot outside the occupied
// window zeroed, so recycled ring slots can never leak a stale flit.
func (f *Fabric) checkSlack(now des.Time, s *swState, in *inPort) {
	if in.cap == 0 {
		if in.fill != 0 {
			f.wormfail(now, "switch %d lane %d fill=%d with no slack ring", s.node, in.idx, in.fill)
		}
		return
	}
	if in.fill < 0 || in.fill > in.cap {
		f.wormfail(now, "switch %d lane %d fill=%d outside [0,%d]", s.node, in.idx, in.fill, in.cap)
	}
	for k := in.fill; k < in.cap; k++ {
		i := in.head + k
		if i >= in.cap {
			i -= in.cap
		}
		if in.slack[i] != (flit.Flit{}) {
			f.wormfail(now, "switch %d lane %d slack slot %d outside the occupied window is not zeroed (head=%d fill=%d)",
				s.node, in.idx, i, in.head, in.fill)
		}
	}
}

// checkPortIndexes: routeIns/boundIns membership must match the port mode
// exactly — these bitmaps are what lets route and transmit skip the scan.
func (f *Fabric) checkPortIndexes(now des.Time, s *swState, in *inPort, pi int) {
	bound := in.mode == pmBoundUni || in.mode == pmBoundMC
	if s.boundIns.has(pi) != bound {
		f.wormfail(now, "switch %d lane %d mode=%d but boundIns=%v", s.node, pi, in.mode, s.boundIns.has(pi))
	}
	wantRoute := false
	switch in.mode {
	case pmIdle:
		wantRoute = in.fill > 0
	case pmCollect, pmWait, pmFlush, pmDrop:
		wantRoute = true
	}
	if s.routeIns.has(pi) != wantRoute {
		f.wormfail(now, "switch %d lane %d mode=%d fill=%d but routeIns=%v",
			s.node, pi, in.mode, in.fill, s.routeIns.has(pi))
	}
	if bound && in.worm == nil {
		f.wormfail(now, "switch %d lane %d bound with no worm", s.node, pi)
	}
}

// checkCrossbar: every output binding pairs with a streaming input lane,
// nBoundOuts equals the recount, and a pmBoundUni lane's cached output
// pointer is its own single binding — reservation and release balance.
func (f *Fabric) checkCrossbar(now des.Time, s *swState) {
	bound := 0
	for oi := range s.out {
		o := &s.out[oi]
		if o.boundIn < 0 {
			if o.phase != opFree {
				f.wormfail(now, "switch %d out %d free but phase=%d", s.node, oi, o.phase)
			}
			continue
		}
		bound++
		in := &s.in[o.boundIn]
		if in.mode != pmBoundUni && in.mode != pmBoundMC {
			f.wormfail(now, "switch %d out %d bound to lane %d which is in mode %d, not streaming: leaked reservation",
				s.node, oi, o.boundIn, in.mode)
		}
		found := false
		for _, x := range in.outs {
			if x == oi {
				found = true
				break
			}
		}
		if !found {
			f.wormfail(now, "switch %d out %d bound to lane %d but absent from its outs list", s.node, oi, o.boundIn)
		}
	}
	if bound != s.nBoundOuts {
		f.wormfail(now, "switch %d nBoundOuts=%d but %d outputs bound", s.node, s.nBoundOuts, bound)
	}
	s.boundIns.forEach(func(pi int) {
		in := &s.in[pi]
		for _, oi := range in.outs {
			if s.out[oi].boundIn != pi {
				f.wormfail(now, "switch %d lane %d claims out %d which is bound to %d: dangling release",
					s.node, pi, oi, s.out[oi].boundIn)
			}
		}
		if in.mode == pmBoundUni {
			if len(in.outs) != 1 {
				f.wormfail(now, "switch %d lane %d pmBoundUni with %d outputs", s.node, pi, len(in.outs))
			}
			if in.ou != &s.out[in.outs[0]] {
				f.wormfail(now, "switch %d lane %d cached output pointer does not match outs[0]=%d",
					s.node, pi, in.outs[0])
			}
		}
	})
}

// checkHosts: the rxBusy reception count and the transmit-side active and
// napped sets.
func (f *Fabric) checkHosts(now des.Time) {
	rx := 0
	for _, h := range f.hosts {
		if h == nil {
			continue
		}
		if h.rx.Worm() != nil {
			rx++
		}
		if (h.cur != nil || h.qlen() > 0) && !f.hostAct.has(int(h.node)) {
			f.wormfail(now, "host %d has queued transmission but is not active: lost wakeup", h.node)
		}
		if f.hostNap.has(int(h.node)) && (!f.hostAct.has(int(h.node)) || h.cur == nil || h.cur.W.PaceFrom != nil ||
			!h.outLink.stopped(0) || now < h.stalledUntil) {
			f.wormfail(now, "host %d napped host is not an unpaced, unstalled stream held by STOP", h.node)
		}
	}
	if rx != f.rxBusy {
		f.wormfail(now, "rxBusy=%d but %d hosts mid-reception", f.rxBusy, rx)
	}
}

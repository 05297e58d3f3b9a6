package network

import (
	"fmt"
	"math/bits"

	"wormlan/internal/arb"
	"wormlan/internal/des"
	"wormlan/internal/flit"
	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
)

// portMode is the routing state of a switch input port.
type portMode uint8

const (
	// pmIdle: no worm in progress; the next flit must be a header flit.
	pmIdle portMode = iota
	// pmCollect: consuming the multicast tree header, one byte per tick.
	pmCollect
	// pmWait: route decoded; waiting to be granted all requested outputs.
	pmWait
	// pmBoundUni: streaming a unicast worm to a single output.
	pmBoundUni
	// pmBoundMC: streaming a replicated worm to several outputs.
	pmBoundMC
	// pmFlush: discarding the remainder of a worm with nowhere to go (a
	// broadcast reaching a leaf switch whose only link is its arrival
	// port; see swState.drain).
	pmFlush
	// pmDrop: draining a worm lost to a failure (stale route into a dead
	// link); drained flits are counted as dropped.
	pmDrop
)

// outPhase is the per-branch transmission phase of a multicast binding.
type outPhase uint8

const (
	opFree outPhase = iota
	// opPrefix: stamping the branch header onto the exiting copy.
	opPrefix
	// opPayload: relaying shared payload flits from the input slack.
	opPayload
)

// inPort is a crossbar input lane with its slack buffer and routing state.
// A physical switch port owns Fabric.nvc consecutive lanes (idx = physical
// port * nvc + vc); with NumVCs == 1 lane and port indices coincide.
type inPort struct {
	f   *Fabric
	sw  *swState
	idx int

	// Slack buffer (Figure 1): fill flits held as runs, oldest first, in
	// a ring that grows by doubling from its inline cell; cap is the
	// buffer's size, Ks + 2·delay, which STOP/GO keeps fill within.
	slack runRing
	fill  int
	cap   int

	// stopMark/goMark cache Config.StopMark/GoMark: receive and pop compare
	// fill against them on every flit, and a config chase there is hot.
	stopMark, goMark int

	inLink *dlink
	worm   *flit.Worm

	// The one-byte fields share a word.  vc is this lane's virtual-channel
	// id within its physical port.
	vc   uint8
	mode portMode
	// rest says whether the port is out of its phase's visit set, and why
	// (see active.go).
	rest restKind
	//wormlint:keep reset callers clear it themselves, paired with the sw.wishPorts accounting only they can see
	stopWish bool
	// blocked marks a pmWait input whose EvBlocked has been emitted, so a
	// blocking episode traces as one Blocked/Resumed pair, not one event
	// per retried tick.
	blocked bool
	// adaptive marks a pmWait head holding the route.AdaptivePort marker:
	// its output request is recomputed from live lane occupancy every tick
	// (adaptiveSelect) instead of being fixed at decode time.  Only
	// meaningful in pmWait; setMode clears it on every other transition.
	adaptive bool
	// mcScan finds the end of the multicast header collected so far in
	// mcBuf (route.Scanner); route.SplitHeader then decodes mcBuf.
	mcScan route.Scanner
	mcBuf  []byte

	// Requested/bound outputs and the header to stamp on each branch
	// (nil for host delivery).
	reqOuts   []int
	reqStamps [][]byte
	outs      []int

	// ou caches &sw.out[outs[0]] while the port is pmBoundUni: the unicast
	// relay reads it once per tick, and the outs[0] double-index is hot.
	// Only meaningful in pmBoundUni; left stale otherwise.
	//wormlint:keep only read in pmBoundUni, where bind just wrote it
	ou *outPort

	// napAt is the transmit pass a napped lane stopped being visited in.
	//wormlint:keep only read while rest is a nap, and every nap writes it
	napAt int64
	// prunedAt is the topology epoch + 1 at which pruneStale last found
	// every requested output live (0: not since the request was decoded).
	prunedAt int64
}

func (in *inPort) receive(fl flit.Flit) {
	// The switch can only be inactive if every port is empty and idle, so
	// an arrival at a non-empty or non-idle port never needs the wakeup —
	// skipping it avoids a load of the (cold) swState header per flit.
	if in.fill == 0 && in.mode == pmIdle {
		in.f.swAct.set(int(in.sw.node))
	}
	if in.rest == napEmpty {
		in.wake() // something to relay again
	}
	if in.fill >= in.cap {
		panic(fmt.Sprintf("network: slack overflow at switch %d port %d (cap %d): STOP/GO sizing bug",
			in.sw.node, in.idx, in.cap))
	}
	in.slack.push(fl)
	in.fill++
	// The STOP wish can only flip to set when the fill climbs to the STOP
	// mark while the wish is clear; any other fill change leaves the publish
	// phase a provable no-op, so the port is not marked dirty for it.
	if in.fill >= in.stopMark && !in.stopWish {
		in.markDirty()
	}
	if in.mode == pmIdle {
		in.sw.routeIns.set(in.idx)
	}
}

// peek returns the oldest slack flit (fill must be >0).
func (in *inPort) peek() flit.Flit { return in.slack.runs[in.slack.head].fl }

func (in *inPort) pop() flit.Flit {
	q := &in.slack
	r := &q.runs[q.head]
	fl := r.fl
	if r.n--; r.n == 0 {
		q.dropHead()
		if q.nruns == 0 {
			// Rewind an empty ring: a standing relay (receive and pop in
			// one tick) then reuses one cell instead of walking the ring.
			// Every read is head-relative, so the rotation is unobservable.
			q.head = 0
		}
	}
	in.fill--
	// Mirror of receive: only a drain to the GO mark with a standing STOP
	// wish can flip the wish at the next publish.
	if in.fill <= in.goMark && in.stopWish {
		in.markDirty()
	}
	if in.fill == 0 && in.mode == pmIdle {
		in.sw.routeIns.clear(in.idx)
	}
	return fl
}

// setMode transitions the port's routing state, keeping the switch's
// route/transmit port masks in step.  Every mode assignment after
// construction must go through here.
func (in *inPort) setMode(m portMode) {
	in.mode = m
	in.prunedAt = 0
	if m != pmWait {
		in.adaptive = false
	}
	sw := in.sw
	switch {
	case m == pmBoundUni || m == pmBoundMC:
		sw.routeIns.clear(in.idx)
		sw.boundIns.set(in.idx)
	case m == pmIdle:
		sw.boundIns.clear(in.idx)
		if in.fill > 0 {
			sw.routeIns.set(in.idx)
		} else {
			sw.routeIns.clear(in.idx)
		}
	default:
		sw.boundIns.clear(in.idx)
		sw.routeIns.set(in.idx)
	}
}

// outPort is a crossbar output lane; sibling lanes of one physical port
// share the same link, whose wire the lane scheduler multiplexes (see
// swState.laneGrant).
type outPort struct {
	link    *dlink
	boundIn int // input lane index, -1 when free

	// vc is the lane id within the physical port; base is the lane index
	// of the port's lane 0 (so base+vc is this lane's own index).
	vc   uint8
	base int

	phase outPhase
	// stamp is the branch header; in opPrefix, stamp[prefixPos:] is still
	// to send.
	stamp     []byte
	prefixPos int
}

func (o *outPort) bind(inIdx int, stamp []byte) {
	o.boundIn = inIdx
	o.stamp = stamp
	o.prefixPos = 0
	if len(stamp) == 0 {
		o.phase = opPayload
	} else {
		o.phase = opPrefix
	}
}

func (o *outPort) unbind() {
	o.boundIn = -1
	o.phase = opFree
	o.stamp = nil
	o.prefixPos = 0
}

// swState is the per-switch simulation state.
type swState struct {
	node topology.NodeID
	f    *Fabric
	in   []inPort
	out  []outPort

	// dead marks a crashed switch: it routes nothing, transmits nothing,
	// and all its port state was wiped when it went down.
	dead bool

	// Incremental port-state indexes (see DESIGN.md §12).  routeIns holds
	// ports where routeInput would do work (a buffered header, or a worm in
	// a pre-bound routing state); boundIns holds ports streaming through
	// the crossbar (pmBoundUni/pmBoundMC).  Both are maintained by
	// setMode/receive/pop so route and transmit touch only live ports.
	routeIns bitset
	boundIns bitset
	// restIns holds the resting ports (see active.go): sleeping pmWait
	// heads, which route skips, and napped pmBoundUni lanes, which
	// transmit skips, until a wake-up.
	restIns bitset
	// dirtyIns marks ports whose STOP wish may need to flip at the next
	// publish phase: receive/pop set it only when the fill crosses the
	// STOP mark (wish clear) or the GO mark (wish set) — any other fill
	// change provably leaves the wish alone, so streaming ports stay out
	// of the publish scan entirely.  deadIns marks ports whose arrival
	// link is dead (excluded from the fabric work OR, as in the full-scan
	// code).
	dirtyIns bitset
	deadIns  bitset
	// wishPorts counts ports with stopWish set; nBoundOuts counts bound
	// crossbar outputs.  Both replace per-tick port scans in phase 4.
	wishPorts  int
	nBoundOuts int

	// arb is the iSLIP arbiter under Config.Arb == ArbISLIP (nil under the
	// scan policy).  arbIns holds the input lanes whose single-output grants
	// were deferred to the post-scan scheduling cell this tick; the cell
	// applies its results in ascending lane order, whatever the rotated
	// order the scan deferred them in.
	arb    *arb.ISLIP
	arbIns bitset
}

// route advances the head-of-worm state machines of every input port:
// header consumption, route decoding, and output arbitration.
func (s *swState) route(now des.Time) {
	// Rotating scan order provides round-robin fairness between inputs
	// contending for the same outputs.  routeIns minus restIns holds
	// exactly the ports for which routeInput is not a no-op (bound and
	// idle-empty ports are excluded, sleeping heads would fail again), so
	// iterating the mask in rotated order visits the same ports in the same
	// order as the full rotating scan did.  The start index rotates over
	// physical ports (scaled to lane 0), so a multi-VC fabric carrying
	// lane-0-only traffic visits ports in exactly the NumVCs == 1 order.
	if !s.routeIns.anyAndNot(&s.restIns) {
		return
	}
	nvc := s.f.nvc
	start := int(now%int64(len(s.in)/nvc)) * nvc
	s.routeIns.forEachFromAndNot(start, &s.restIns, func(pi int) {
		s.routeInput(&s.in[pi], now)
	})
	if s.arb != nil && !s.arbIns.empty() {
		s.islipArbitrate(now)
	}
}

// laneFor maps a unicast route byte to an output lane index: a plain port
// byte lands on the port's lane 0, and a VC-headered fabric
// (Config.VCHeaders) unpacks vc<<6|port pairs.
func (s *swState) laneFor(b byte) int {
	f := s.f
	if f.Cfg.VCHeaders {
		port, vc := route.DecodeVCPort(b)
		return port*f.nvc + vc
	}
	return int(b) * f.nvc
}

func (s *swState) routeInput(in *inPort, now des.Time) {
	switch in.mode {
	case pmIdle:
		if in.fill == 0 {
			return
		}
		fl := in.peek()
		if fl.Kind != flit.Header {
			if fl.W.RxAborted || (fl.Kind == flit.Tail && fl.Bad) {
				// Leftovers of a worm torn down by a failure (a headerless
				// stub, or a sender that resumed onto a revived link
				// mid-worm): drain them without routing.
				in.pop()
				s.f.ctr.FlitsDropped++
				s.f.dropWorm(fl.W)
				return
			}
			panic(fmt.Sprintf("network: switch %d port %d: worm %d starts with %s flit",
				s.node, in.idx, fl.W.ID, fl.Kind))
		}
		in.worm = fl.W
		if s.f.rec != nil {
			s.f.emit(now, trace.EvHeadAtSwitch, s.node, in.idx, fl.W.ID, 0)
		}
		switch fl.W.Mode {
		case flit.Unicast:
			b := in.pop()
			if s.f.adaptive != nil && b.B == route.AdaptivePort {
				// Duato marker: the output is chosen per-hop from live lane
				// occupancy, re-evaluated each tick by adaptiveSelect (which
				// grantOrDefer dispatches to while the flag is set).
				in.setMode(pmWait)
				in.adaptive = true
			} else {
				in.reqOuts = append(in.reqOuts[:0], s.laneFor(b.B))
				in.reqStamps = append(in.reqStamps[:0], nil)
				in.setMode(pmWait)
			}
		case flit.Broadcast:
			b := in.pop()
			if b.B == route.BroadcastPort {
				in.reqOuts, in.reqStamps = s.broadcastBranches(in.idx)
				if len(in.reqOuts) == 0 {
					// Leaf switch whose only connection is the arrival
					// port: the worm dies here; drain it.
					in.setMode(pmFlush)
					return
				}
			} else {
				// Still on the unicast prefix toward the root; broadcast
				// prefixes are plain port bytes on lane 0.
				in.reqOuts = append(in.reqOuts[:0], int(b.B)*s.f.nvc)
				in.reqStamps = append(in.reqStamps[:0], nil)
			}
			in.setMode(pmWait)
		case flit.MulticastTree:
			in.setMode(pmCollect)
			in.mcBuf = in.mcBuf[:0]
			in.mcScan = route.Scanner{}
			s.collect(in) // consume the first byte this tick
			return
		}
		if in.mode == pmWait {
			s.grantOrDefer(in, now)
		}
	case pmCollect:
		s.collect(in)
		if in.mode == pmWait {
			s.grantOrDefer(in, now)
		}
	case pmWait:
		s.grantOrDefer(in, now)
	case pmFlush, pmDrop:
		s.drain(in)
	}
}

// drain discards everything available of the worm heading a pmFlush or
// pmDrop port, up to its (possibly synthetic) tail, which re-idles the
// port, without per-byte pacing; a worm lost to a failure (pmDrop) also
// counts every drained flit dropped.
func (s *swState) drain(in *inPort) {
	for in.fill > 0 {
		fl := in.pop()
		if in.mode == pmDrop {
			s.f.ctr.FlitsDropped++
		}
		if fl.Kind == flit.Tail {
			in.setMode(pmIdle)
			in.worm = nil
			return
		}
	}
}

// dropHead drains a routing head left with no way forward (every requested
// output dead, or no adaptive route), counting its worm dropped.
func (s *swState) dropHead(in *inPort) {
	s.f.dropWorm(in.worm)
	in.setMode(pmDrop)
	in.blocked = false
	s.drain(in)
}

// collect consumes one multicast header byte per tick and decodes the
// branch list when route.Scanner reports the header complete.
func (s *swState) collect(in *inPort) {
	if in.fill == 0 {
		return
	}
	fl := in.peek()
	if fl.Kind != flit.Header {
		if fl.Kind == flit.Tail && fl.Bad {
			// The header was truncated by an upstream failure: abort the
			// parse and drop the stub.
			in.pop()
			s.f.ctr.FlitsDropped += int64(len(in.mcBuf)) + 1
			s.f.dropWorm(in.worm)
			in.setMode(pmIdle)
			in.worm = nil
			in.mcBuf = in.mcBuf[:0]
			return
		}
		panic(fmt.Sprintf("network: switch %d port %d: %s flit inside multicast header of worm %d",
			s.node, in.idx, fl.Kind, fl.W.ID))
	}
	in.pop()
	in.mcBuf = append(in.mcBuf, fl.B)
	done, err := in.mcScan.Next(fl.B)
	var splits []route.Split
	if done {
		splits, err = route.SplitHeader(in.mcBuf)
	}
	if err != nil {
		panic(fmt.Sprintf("network: corrupt multicast header of worm %d: %v", fl.W.ID, err))
	}
	if !done {
		return
	}
	in.reqOuts = in.reqOuts[:0]
	in.reqStamps = in.reqStamps[:0]
	for _, sp := range splits {
		stamp := sp.Header
		if len(stamp) == 1 && stamp[0] == route.End {
			stamp = nil // host delivery: no header on the exiting copy
		}
		// Branch bytes decode exactly like unicast route bytes: VC-headered
		// fabrics unpack vc<<6|port so each fork branch carries its own lane;
		// plain port bytes land on lane 0 either way.
		in.reqOuts = append(in.reqOuts, s.laneFor(byte(sp.Port)))
		in.reqStamps = append(in.reqStamps, stamp)
	}
	in.setMode(pmWait)
}

// broadcastBranches returns the replication set for a broadcast worm that
// has reached this switch: every attached host and every 'down' spanning-
// tree link (Section 3's simplified broadcast).  Copies travel strictly
// down the tree, so no arrival-port exclusion is needed: the link to the
// parent is an 'up' link here and is never selected, and the flood
// terminates at the leaves.  Every host receives the broadcast, including
// the sender.
//
//wormlint:alloc per-broadcast fan-out set; broadcasts are rare control worms outside the zero-alloc pin
func (s *swState) broadcastBranches(arrival int) (outs []int, stamps [][]byte) {
	ud := s.f.UD
	g := s.f.G
	nvc := s.f.nvc
	for pi, p := range g.Node(s.node).Ports {
		if !p.Wired() || s.out[pi*nvc].link.dead {
			continue
		}
		if g.Node(p.Peer).Kind == topology.Host {
			outs = append(outs, pi*nvc)
			stamps = append(stamps, nil)
			continue
		}
		if ud.InTree(s.node, topology.PortID(pi)) && !ud.IsUp(s.node, topology.PortID(pi)) {
			outs = append(outs, pi*nvc)
			stamps = append(stamps, []byte{route.BroadcastPort})
		}
	}
	return outs, stamps
}

// pruneStale drops request branches whose output link has died since the
// route was computed (a stale source route), and reports false when the
// worm lost every branch and was drained.
func (s *swState) pruneStale(in *inPort) bool {
	if in.prunedAt == s.f.epoch+1 && !in.adaptive {
		// Every branch was live at this epoch, and liveness only changes
		// with the epoch.  (Adaptive heads rewrite their request per tick.)
		return true
	}
	pruned := false
	liveOuts := in.reqOuts[:0]
	liveStamps := in.reqStamps[:0]
	for i, oi := range in.reqOuts {
		if oi >= len(s.out) || s.out[oi].link == nil {
			panic(fmt.Sprintf("network: worm %d routed to nonexistent port %d of switch %d",
				in.worm.ID, oi, s.node))
		}
		if s.out[oi].link.dead {
			s.f.ctr.StaleRouteDrops++
			pruned = true
			continue
		}
		liveOuts = append(liveOuts, oi)
		liveStamps = append(liveStamps, in.reqStamps[i])
	}
	in.reqOuts, in.reqStamps = liveOuts, liveStamps
	if pruned {
		if in.worm.Epoch != s.f.epoch {
			s.f.ctr.EpochMismatches++
		}
		if len(in.reqOuts) == 0 {
			s.dropHead(in)
			return false
		}
	}
	in.prunedAt = s.f.epoch + 1
	return true
}

// bindRequested commits a granted request: binds every requested output to
// the input lane and moves the lane to its streaming mode.
func (s *swState) bindRequested(in *inPort) {
	for i, oi := range in.reqOuts {
		s.out[oi].bind(in.idx, in.reqStamps[i])
	}
	s.nBoundOuts += len(in.reqOuts)
	in.outs = append(in.outs[:0], in.reqOuts...)
	if len(in.outs) == 1 && in.worm.Mode == flit.Unicast {
		in.ou = &s.out[in.outs[0]]
		in.setMode(pmBoundUni)
	} else {
		in.setMode(pmBoundMC)
		if s.f.nvc > 1 {
			for _, oi := range in.outs {
				s.wakeWireSiblings(&s.out[oi])
			}
		}
	}
}

// grantOrDefer arbitrates a pmWait input.  Under the scan policy (and for
// every multi-output request, which needs the scan's atomic all-or-nothing
// grant) it grants immediately in scan order; under ArbISLIP single-output
// requests are deferred to the post-scan iSLIP scheduling cell.
func (s *swState) grantOrDefer(in *inPort, now des.Time) {
	if in.adaptive {
		// Adaptive heads re-decide their request from current occupancy and
		// grab free lanes immediately; deferring to iSLIP would arbitrate a
		// request that is stale by the time the scheduling cell runs.
		s.adaptiveSelect(in, now)
		return
	}
	if s.arb != nil && len(in.reqOuts) == 1 {
		// Prune every tick even while deferred, so stale routes into dead
		// links are noticed as promptly as under the scan.
		if !s.pruneStale(in) || len(in.reqOuts) != 1 {
			if in.mode == pmWait {
				s.tryGrant(in, now)
			}
			return
		}
		s.arbIns.set(in.idx)
		return
	}
	s.tryGrant(in, now)
}

// tryGrant performs all-or-nothing output arbitration for the input's
// request.  Granting atomically prevents partial-hold deadlocks between
// replicating worms within one switch.
func (s *swState) tryGrant(in *inPort, now des.Time) {
	if !s.pruneStale(in) {
		return
	}
	free := true
	for _, oi := range in.reqOuts {
		if s.out[oi].boundIn >= 0 {
			free = false
			break
		}
	}
	if !free {
		s.noteBlocked(in, true, now)
		if !in.adaptive && (s.arb == nil || len(in.reqOuts) != 1) {
			// The next retry is this one again until an output frees.
			s.sleep(in)
		}
		return
	}
	s.noteBlocked(in, false, now)
	s.bindRequested(in)
}

// noteBlocked records whether a pmWait head's latest grant attempt failed.
// A blocking episode traces as one EvBlocked at its first failure and one
// EvResumed at the grant that ends it, not one event per retried tick.
func (s *swState) noteBlocked(in *inPort, blocked bool, now des.Time) {
	if in.blocked == blocked {
		return
	}
	in.blocked = blocked
	if s.f.rec != nil {
		k := trace.EvResumed
		if blocked {
			k = trace.EvBlocked
		}
		s.f.emit(now, k, s.node, in.idx, in.worm.ID, int64(len(in.reqOuts)))
	}
}

// islipArbitrate runs one iSLIP scheduling cell over the input lanes whose
// grants were deferred this tick, then applies the matching in ascending
// lane order (binds, Blocked/Resumed bookkeeping) so the observable event
// order is independent of the rotated collection order.
func (s *swState) islipArbitrate(now des.Time) {
	a := s.arb
	a.Begin()
	s.arbIns.forEach(func(li int) { a.Request(li, s.in[li].reqOuts) })
	m := a.Match(func(o int) bool {
		op := &s.out[o]
		return op.boundIn < 0 && !op.link.dead
	})
	s.arbIns.forEach(func(li int) {
		s.arbIns.clear(li)
		in := &s.in[li]
		if m[li] >= 0 {
			s.noteBlocked(in, false, now)
			s.bindRequested(in)
		} else {
			s.noteBlocked(in, true, now)
		}
	})
}

// transmit moves one flit per bound output: branch prefixes first, then
// shared payload gated on every branch being ready (the IDLE-fill rule of
// Section 3).
func (s *swState) transmit(now des.Time) {
	// boundIns holds exactly the ports in pmBoundUni/pmBoundMC, in index
	// order — the same ports the full scan would act on — and restIns the
	// ones whose visit would be a no-op.
	f := s.f
	s.boundIns.forEachAndNot(&s.restIns, func(ii int) {
		in := &s.in[ii]
		// boundIns holds only pmBoundUni and pmBoundMC ports.
		switch in.mode {
		case pmBoundUni:
			o := in.ou
			if s.wireHeld(o, now) {
				// A sibling lane owns the wire this tick (or none is
				// ready); a stopped lane's wait still counts as a stall.
				if o.link.stopped(o.vc) {
					o.link.stalled++
					s.nap(in, napStopped)
				} else if in.fill == 0 && o.phase == opPayload {
					s.nap(in, napEmpty)
				}
				return
			}
			if o.link.stopped(o.vc) {
				o.link.stalled++
				s.nap(in, napStopped)
				return
			}
			if o.phase == opPrefix {
				// Stamping a header onto the exiting copy (adaptive marker
				// or escape-route bytes).
				s.sendPrefix(o, in.worm, now)
				return
			}
			if in.fill == 0 {
				s.nap(in, napEmpty)
				return
			}
			fl := in.pop()
			// Re-tag with the outgoing lane: a VC-switching route (e.g.
			// dateline crossing) may move the worm between lanes.
			fl.VC = o.vc
			o.link.carry(now, fl)
			if fl.Kind == flit.Tail {
				if f.rec != nil {
					f.emit(now, trace.EvTailDrained, s.node, in.idx, fl.W.ID, 1)
				}
				o.unbind()
				s.nBoundOuts--
				in.setMode(pmIdle)
				in.worm = nil
				s.wakeHeads(o.base + int(o.vc))
			}
		case pmBoundMC:
			s.transmitMC(in, now)
		}
	})
}

// publish runs phase 4 for the switch: every port whose slack fill crossed
// a STOP/GO threshold since the last publish (dirtyIns — the wish is a pure
// function of fill with hysteresis, so any other fill history cannot flip
// it) re-evaluates its wish, and a wish that differs from its link's
// dlink.wish goes up the reverse channel as a symbol.  Any other
// port's publish is a no-op, and a switch with no dirty port is not in
// Fabric.pubSw at all.
func (s *swState) publish(now des.Time) {
	f := s.f
	stopMark, goMark := f.Cfg.StopMark, f.Cfg.GoMark
	for wi := range s.dirtyIns.words {
		w := s.dirtyIns.words[wi]
		s.dirtyIns.words[wi] = 0
		for w != 0 {
			pi := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			in := &s.in[pi]
			l := in.inLink
			if l == nil || l.dead {
				continue
			}
			fill := in.fill
			switch {
			case fill >= stopMark:
				if !in.stopWish {
					in.stopWish = true
					s.wishPorts++
					if f.rec != nil {
						f.emit(now, trace.EvStop, s.node, pi, in.wormID(), int64(fill))
					}
				}
			case fill <= goMark:
				if in.stopWish {
					in.stopWish = false
					s.wishPorts--
					if f.rec != nil {
						f.emit(now, trace.EvGo, s.node, pi, in.wormID(), int64(fill))
					}
				}
			}
			if w, bit := l.wish(), uint8(1)<<in.vc; (w&bit != 0) != in.stopWish {
				l.signal(now, w^bit)
			}
		}
	}
	f.pubSw.clear(int(s.node))
}

// settleLiveness folds the switch's end-of-tick state into the fabric work
// flag and drops the switch from swAct when every phase would be a no-op.
// Equivalences with the full scan: routeIns|boundIns is exactly "fill > 0
// or mode not idle" (a flush/drop port stays in routeIns until it
// re-idles; sleeping and napped ports stay members); wishPorts keeps a
// switch with a standing STOP wish active.  Symbols in flight need no
// switch: their links sit in Fabric.settle.
func (s *swState) settleLiveness() {
	f := s.f
	if anyAndNot(&s.routeIns, &s.boundIns, &s.deadIns) {
		f.work = true
	}
	busy := s.wishPorts > 0 || anyOr(&s.routeIns, &s.boundIns)
	if s.nBoundOuts > 0 {
		f.work = true
		busy = true
		if f.swBound != nil {
			f.swBound[s.node] += int64(s.nBoundOuts)
			if s.nBoundOuts > f.swPeak[s.node] {
				f.swPeak[s.node] = s.nBoundOuts
			}
		}
	}
	if !busy {
		f.swAct.clear(int(s.node))
	}
}

// laneGrant returns the lane granted the physical wire of link l this
// tick, computing the decision once per link per tick (cached on the
// link).  The scheduler is a stateless rotating priority: starting from
// now % nvc, the first ready bound lane wins.  Ready means unstopped with
// a flit (or prefix byte) to send.  Multicast branch lanes compete like
// unicast ones; a granted branch that cannot send (a sibling branch of
// its fork is blocked) idles the wire, which models IDLE fill.
// Statelessness matters: replay and fast-forward need no scheduler state
// to repair.
func (s *swState) laneGrant(l *dlink, base int, now des.Time) int8 {
	if l.grantTick == now {
		return l.grantVC
	}
	l.grantTick = now
	nvc := s.f.nvc
	start := int(now % int64(nvc))
	for k := 0; k < nvc; k++ {
		v := start + k
		if v >= nvc {
			v -= nvc
		}
		o := &s.out[base+v]
		if o.boundIn < 0 || l.stopped(uint8(v)) {
			continue
		}
		if o.phase == opPayload && s.in[o.boundIn].fill == 0 {
			continue
		}
		l.grantVC = int8(v)
		return l.grantVC
	}
	l.grantVC = -1
	return -1
}

// wireHeld reports whether, on a multi-lane fabric, the physical wire of
// output lane o belongs to a sibling lane this tick (rotating lane grant).
// Single-lane fabrics have no multiplexing, so the wire is always o's.
func (s *swState) wireHeld(o *outPort, now des.Time) bool {
	return s.f.nvc > 1 && s.laneGrant(o.link, o.base, now) != int8(o.vc)
}

// sendPrefix sends the next byte of output o's branch header on the copy of
// worm w leaving through o; payload follows once the whole header is out.
func (s *swState) sendPrefix(o *outPort, w *flit.Worm, now des.Time) {
	o.link.carry(now, flit.Flit{W: w, Tag: flit.Tag{Kind: flit.Header, B: o.stamp[o.prefixPos], VC: o.vc}})
	o.prefixPos++
	if o.prefixPos == len(o.stamp) {
		o.phase = opPayload
	}
}

func (s *swState) transmitMC(in *inPort, now des.Time) {
	// Stage 1: branches still stamping their headers send prefix bytes
	// independently.  Shared payload cannot advance until every branch has
	// finished its prefix.  Each branch rides its own lane (o.vc; lane 0
	// unless the fork decoded VC-headered branch bytes), so backpressure
	// and wire multiplexing are checked per lane.
	anyPrefix := false
	for _, oi := range in.outs {
		o := &s.out[oi]
		if o.phase != opPrefix {
			continue
		}
		anyPrefix = true
		if o.link.stopped(o.vc) {
			o.link.stalled++
		} else if !s.wireHeld(o, now) {
			s.sendPrefix(o, in.worm, now)
		}
	}
	if anyPrefix {
		return
	}
	// Stage 2: is any branch backpressured?  Every stalled branch counts
	// toward its link's stall time, so no early break.  A branch whose wire
	// a sibling lane holds this tick is not backpressured (that is
	// transient multiplexing, not congestion) but the shared pop must
	// still wait for it.
	anyStopped := false
	wireLost := false
	for _, oi := range in.outs {
		o := &s.out[oi]
		if o.link.stopped(o.vc) {
			anyStopped = true
			o.link.stalled++
		} else if s.wireHeld(o, now) {
			wireLost = true
		}
	}
	if anyStopped || wireLost {
		// IDLE fill: the ready branches hold their ports and transmit IDLE
		// symbols (modelled as silence); a sibling lane owning some
		// branch's wire holds the shared pop the same way for a tick.
		return
	}
	// Stage 3: every branch streaming and ready — advance the shared worm.
	if in.fill == 0 {
		return
	}
	fl := in.pop()
	for _, oi := range in.outs {
		o := &s.out[oi]
		// Re-tag with the branch's outgoing lane, as the unicast relay does.
		bf := fl
		bf.VC = o.vc
		o.link.carry(now, bf)
	}
	if fl.Kind == flit.Tail {
		if s.f.rec != nil {
			s.f.emit(now, trace.EvTailDrained, s.node, in.idx, fl.W.ID, int64(len(in.outs)))
		}
		for _, oi := range in.outs {
			s.out[oi].unbind()
		}
		s.nBoundOuts -= len(in.outs)
		in.setMode(pmIdle)
		in.worm = nil
		for _, oi := range in.outs {
			s.wakeHeads(oi)
		}
		in.outs = in.outs[:0]
	}
}

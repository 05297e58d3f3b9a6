package network

import "math/bits"

// Active-element tracking for the fabric hot path.
//
// The fabric tick historically scanned every link, switch, and host each
// byte-time; on large topologies almost all of that scan is idle elements
// whose per-tick phase body is a provable no-op, and past saturation most
// of the rest is elements waiting on something that has not happened yet.
// Fabric.Tick therefore visits only the elements that can act this tick,
// in ascending index order — the same order as the full scan, so
// determinism is unaffected.  Every rule below keeps out exactly the
// elements whose visit the original full scan spent as a no-op.  Each set
// is a bitset and nothing else: no link, switch or host carries a flag
// mirroring its membership.
//
// Visit sets, and what puts an element back in:
//
//   - link (phase 1): its bit in the arrival bitset of its delay class's
//     current slot (set by dlink.send, cleared on delivery), or its bit in
//     Fabric.settle: a reverse-channel symbol is in flight (set by
//     dlink.signal, cleared by the delivery that applies the last one).
//     Any other link would deliver nothing and apply nothing.
//     Fabric.inFlight, the sum of every link's inFlight, supplies the "a
//     link still holds data" work flag.  linkAct is the set of links
//     holding any state (a flit or symbol in flight, or stopMask non-zero):
//     dlink.send and dlink.signal set the link's bit through its cached
//     aw/abit, and delivery clears it once the link is empty.  Only Skip
//     reads it.
//   - switch (phases 2-4): swAct holds switches with any input port
//     non-empty, non-idle or with a STOP wish, or any bound output;
//     inPort.receive and the fault paths re-activate.  Liveness is settled
//     right after the switch's transmit unless it is in pubSw — a dirty
//     STOP/GO port (markDirty) — in which case phase 4 publishes and then
//     settles it.
//   - routing head (phase 2): routeIns minus restIns.  A scan-arbitrated,
//     non-adaptive pmWait head whose grant failed sleeps: its retry would
//     re-prune an unchanged request (pruneStale is memoized per epoch) and
//     fail again while any requested output stays bound.  It wakes when an
//     output it requests unbinds (transmit, transmitMC) and on every
//     topology epoch move (the fault paths).
//     iSLIP-deferred and adaptive heads stay polled: their outcome depends
//     on more than output bindings.
//   - streaming lane (phase 3): boundIns minus restIns.  A pmBoundUni lane
//     naps when STOP holds it (its visit only counts a stall tick) or when
//     it has nothing to relay and is not stopped.  It wakes on an arrival
//     into an empty nap (inPort.receive), on any change of its own lane's
//     bit in its link's stopMask (dlink.deliver, killLink), on a fork
//     binding a sibling lane of its wire (whose stage-3 resume could
//     otherwise move the lane grant the napped lane would have computed
//     first), and on the fault paths.  Forks (pmBoundMC) stay polled.
//   - host transmit (phase 3): hostAct minus hostNap.  hostAct holds hosts
//     with a current stream or a queued worm (Fabric.Inject re-activates);
//     an unpaced stream held by STOP naps, and wakes on a stopMask change
//     on its link (dlink.deliver, killLink) or StallHost.  The receive side is passive (driven by
//     link deliveries), so a receiving-only host needs no bit; the fabric
//     tracks in-progress receptions in the rxBusy counter instead.
//
// A napped sender's skipped visits would each have counted a stall tick
// while STOP held it, so wake (and Metrics, for naps still running) adds
// the transmit passes since the nap to dlink.stalled: the counter reads
// what per-tick counting gave.  Nothing that naps or sleeps can pass Skip's
// validation, and Skip declines whenever anything rests (fastforward.go).
type bitset struct {
	words []uint64
}

func newBitset(n int) bitset { return bitset{words: make([]uint64, (n+63)/64)} }

func (b *bitset) set(i int)   { b.words[i>>6] |= 1 << uint(i&63) }
func (b *bitset) clear(i int) { b.words[i>>6] &^= 1 << uint(i&63) }

// forEach calls fn for every set bit in ascending order.  fn may clear the
// current bit or set bits in *other* bitsets; mutations of later words of
// the same bitset during iteration are visible, mutations within the word
// being iterated are not (the word is walked from a snapshot).  All Tick
// phases only clear the current element's own bit, so the snapshot is safe.
func (b *bitset) forEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// forEachAndNot is forEach over the bits of b not set in not.
func (b *bitset) forEachAndNot(not *bitset, fn func(i int)) {
	for wi, w := range b.words {
		for w &^= not.words[wi]; w != 0; w &= w - 1 {
			fn(wi<<6 + bits.TrailingZeros64(w))
		}
	}
}

// has reports whether bit i is set.
func (b *bitset) has(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// empty reports whether no bit is set.
func (b *bitset) empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// anyAndNot reports whether (b | c) &^ d has any set bit.  Used for the
// per-switch "any live port occupied" test in swState.settleLiveness.
func anyAndNot(b, c, d *bitset) bool {
	for wi := range b.words {
		if (b.words[wi]|c.words[wi])&^d.words[wi] != 0 {
			return true
		}
	}
	return false
}

// anyAndNot reports whether b &^ not has any set bit.
func (b *bitset) anyAndNot(not *bitset) bool {
	for wi, w := range b.words {
		if w&^not.words[wi] != 0 {
			return true
		}
	}
	return false
}

// anyOr reports whether b | c has any set bit.
func anyOr(b, c *bitset) bool {
	for wi := range b.words {
		if b.words[wi]|c.words[wi] != 0 {
			return true
		}
	}
	return false
}

// forEachFromAndNot calls fn for every bit of b not set in not, starting
// at bit start and wrapping around — the rotated scan order used by switch
// arbitration.  Same snapshot semantics as forEach.
func (b *bitset) forEachFromAndNot(start int, not *bitset, fn func(i int)) {
	sw := start >> 6
	mask := ^uint64(0) << uint(start&63)
	for wi := sw; wi < len(b.words); wi++ {
		w := b.words[wi] &^ not.words[wi] & mask
		mask = ^uint64(0)
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	if start == 0 {
		return
	}
	for wi := 0; wi <= sw && wi < len(b.words); wi++ {
		w := b.words[wi] &^ not.words[wi]
		if wi == sw {
			w &= (1 << uint(start&63)) - 1
		}
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// restKind says why a port is out of its phase's visit set.
type restKind uint8

const (
	awake      restKind = iota
	asleep              // pmWait head: routeIns member, not visited
	napEmpty            // pmBoundUni lane with nothing to relay, not stopped
	napStopped          // pmBoundUni lane held by STOP
)

// markDirty queues the port for a STOP/GO re-evaluation at the next publish.
func (in *inPort) markDirty() {
	in.sw.dirtyIns.set(in.idx)
	in.f.pubSw.set(int(in.sw.node))
}

// sleep takes a blocked head out of the route phase (see the header).
func (s *swState) sleep(in *inPort) {
	in.rest = asleep
	s.restIns.set(in.idx)
	s.f.heads++
}

// wakeHeads wakes the sleeping heads of the switch that request output oi.
func (s *swState) wakeHeads(oi int) {
	if s.f.heads == 0 {
		return
	}
	s.restIns.forEach(func(pi int) {
		in := &s.in[pi]
		if in.rest != asleep {
			return
		}
		for _, r := range in.reqOuts {
			if r == oi {
				in.wake()
				return
			}
		}
	})
}

// wakeAllHeads wakes every sleeping head: the topology epoch moved, so a
// requested output may have died.
func (f *Fabric) wakeAllHeads() {
	for _, s := range f.sw {
		if f.heads == 0 {
			return
		}
		if s != nil {
			s.restIns.forEach(func(pi int) {
				if in := &s.in[pi]; in.rest == asleep {
					in.wake()
				}
			})
		}
	}
}

// nap takes a streaming pmBoundUni lane out of the transmit phase.  On a
// multi-lane wire with a fork bound to a sibling lane it stays awake: the
// lane grant is computed by the first lane to ask each tick, and a fork's
// resume may change the grant's inputs before a later lane would ask.
func (s *swState) nap(in *inPort, why restKind) {
	o := in.ou
	if s.f.nvc > 1 {
		for v := 0; v < s.f.nvc; v++ {
			if b := s.out[o.base+v].boundIn; b >= 0 && s.in[b].mode == pmBoundMC {
				return
			}
		}
	}
	in.rest = why
	in.napAt = s.f.passes + 1 // this pass; the next one skips the lane
	s.restIns.set(in.idx)
	s.f.naps++
}

// wakeWireSiblings wakes the napped lanes bound to the sibling lanes of
// output o's wire (a fork just bound o; see nap).
func (s *swState) wakeWireSiblings(o *outPort) {
	for v := 0; v < s.f.nvc; v++ {
		if b := s.out[o.base+v].boundIn; b >= 0 {
			s.in[b].wake()
		}
	}
}

// wake returns a resting port to its phase's visit set, first adding the
// stall ticks a STOP-held nap skipped to its link.
func (in *inPort) wake() {
	sw, f := in.sw, in.f
	switch in.rest {
	case awake:
		return
	case asleep:
		f.heads--
	case napStopped:
		in.ou.link.stalled += f.passes - in.napAt
		f.naps--
	case napEmpty:
		f.naps--
	}
	sw.restIns.clear(in.idx)
	in.rest = awake
}

// nap takes a STOP-held, unpaced host stream out of the transmit phase.
func (h *hostIf) nap() {
	h.napAt = h.f.passes + 1
	h.f.hostNap.set(int(h.node))
	h.f.naps++
}

// wake returns a napped host to the transmit phase, adding the stall
// ticks it skipped to its link.
func (h *hostIf) wake() {
	if !h.f.hostNap.has(int(h.node)) {
		return
	}
	h.outLink.stalled += h.f.passes - h.napAt
	h.f.hostNap.clear(int(h.node))
	h.f.naps--
}

package network

import (
	"fmt"
	"strings"

	"wormlan/internal/flit"
	"wormlan/internal/topology"
)

// StallReport renders a human-readable snapshot of every port holding or
// waiting for resources — the first thing to look at when the fabric
// deadlocks.  Deadlocked configurations show a cycle of pmWait inputs whose
// requested outputs are bound to worms that are themselves backpressured.
func (f *Fabric) StallReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fabric stall report at t=%d (last movement t=%d)\n", f.K.Now(), f.lastMove)
	for _, s := range f.sw {
		if s == nil {
			continue
		}
		for pi := range s.in {
			in := &s.in[pi]
			if in.mode == pmIdle && in.fill == 0 {
				continue
			}
			fmt.Fprintf(&b, "  switch %d in[%d]: mode=%v fill=%d", s.node, pi, in.mode, in.fill)
			if in.worm != nil {
				fmt.Fprintf(&b, " worm=%d(%s)", in.worm.ID, in.worm.Mode)
			}
			if in.mode == pmWait {
				fmt.Fprintf(&b, " wants=%v", in.reqOuts)
			}
			if len(in.outs) > 0 && (in.mode == pmBoundUni || in.mode == pmBoundMC) {
				fmt.Fprintf(&b, " holds=%v", in.outs)
			}
			b.WriteByte('\n')
		}
		for oi := range s.out {
			o := &s.out[oi]
			if o.boundIn < 0 {
				continue
			}
			fmt.Fprintf(&b, "  switch %d out[%d]: bound to in[%d] phase=%d stopped=%v\n",
				s.node, oi, o.boundIn, o.phase, o.link.stopped(o.vc))
		}
	}
	for _, h := range f.hosts {
		if h == nil {
			continue
		}
		if h.cur != nil || h.qlen() > 0 {
			fmt.Fprintf(&b, "  host %d: sending=%v queued=%d stopped=%v\n",
				h.node, h.cur != nil, h.qlen(), h.outLink.stopped(0))
		}
	}
	return b.String()
}

// String names the port mode for diagnostics.
func (m portMode) String() string {
	switch m {
	case pmIdle:
		return "idle"
	case pmCollect:
		return "collect"
	case pmWait:
		return "wait"
	case pmBoundUni:
		return "unicast"
	case pmBoundMC:
		return "multicast"
	case pmFlush:
		return "flush"
	case pmDrop:
		return "drop"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// HeldChannels returns, for diagnosis and deadlock tests, the set of
// (switch, output port) pairs currently bound to each in-flight worm.
//
//wormlint:alloc diagnostic snapshot, built on demand, never on the tick path
func (f *Fabric) HeldChannels() map[*flit.Worm][]struct {
	Switch topology.NodeID
	Port   topology.PortID
} {
	out := make(map[*flit.Worm][]struct {
		Switch topology.NodeID
		Port   topology.PortID
	})
	for _, s := range f.sw {
		if s == nil {
			continue
		}
		for oi := range s.out {
			o := &s.out[oi]
			if o.boundIn < 0 {
				continue
			}
			w := s.in[o.boundIn].worm
			if w == nil {
				continue
			}
			// Report the physical port (lane index / nvc), the unit the
			// topology and the deadlock tests reason about.
			out[w] = append(out[w], struct {
				Switch topology.NodeID
				Port   topology.PortID
			}{s.node, topology.PortID(oi / f.nvc)})
		}
	}
	return out
}

package network

import (
	"wormlan/internal/des"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
)

// emit forwards one event to the configured recorder.  Callers guard with
// `if f.rec != nil` at the instrumentation site so the disabled path costs
// exactly one predictable branch.
func (f *Fabric) emit(now des.Time, k trace.Kind, node topology.NodeID, port int, worm, arg int64) {
	f.rec.Record(trace.Event{At: now, Kind: k, Node: node, Port: port, Worm: worm, Arg: arg})
}

// wormID returns the ID of the worm the input port is carrying, or 0 when
// the port is between worms (STOP/GO events can fire on an idle port whose
// slack is draining).
func (in *inPort) wormID() int64 {
	if in.worm == nil {
		return 0
	}
	return in.worm.ID
}

// Metrics snapshots the fabric's channel and switch counters.  Channel
// busy/stall counters accumulate unconditionally; the crossbar occupancy
// integral (SwitchStat.BoundTicks and Ticks) is sampled only while
// Config.Metrics is set and reads zero otherwise.  Order is the
// deterministic link construction order and node-ID order.
//
//wormlint:alloc end-of-run metrics snapshot, not on the tick path
func (f *Fabric) Metrics() *trace.Metrics {
	m := &trace.Metrics{Ticks: f.mticks}
	m.Channels = make([]trace.ChannelStat, len(f.links))
	for i, l := range f.links {
		m.Channels[i] = trace.ChannelStat{
			Src: l.srcNode, SrcPort: l.srcPort,
			Dst: l.dstNode, DstPort: l.dstPort,
			Busy: l.carried, Stalled: l.stalled,
		}
	}
	// STOP-held senders whose nap is still open have not yet added the
	// stall ticks their skipped visits would have counted (see active.go).
	f.hostNap.forEach(func(ni int) {
		h := f.hosts[ni]
		m.Channels[h.outLink.id].Stalled += f.passes - h.napAt
	})
	var sws []trace.SwitchStat
	for _, s := range f.sw {
		if s == nil {
			continue
		}
		s.restIns.forEach(func(pi int) {
			if in := &s.in[pi]; in.rest == napStopped {
				m.Channels[in.ou.link.id].Stalled += f.passes - in.napAt
			}
		})
		st := trace.SwitchStat{Node: s.node}
		if f.swBound != nil {
			st.BoundTicks = f.swBound[s.node]
			st.PeakBound = f.swPeak[s.node]
		}
		sws = append(sws, st)
	}
	m.Switches = sws
	return m
}

package network

// In-band liveness hellos.
//
// When enabled, every directional link carries a periodic hello flit with
// seeded per-link jitter.  Hellos obey the same physics as data: a hello
// waits while the sender's pipeline slot is occupied by a data flit or the
// link's delayed STOP state holds the sending end, and it is black-holed by
// a dead link.  A congested link therefore starves hellos exactly as it
// starves data — which is what makes false positives and flapping at the
// detector (internal/liveness) a property of the fabric rather than a
// modelling knob.
//
// Hellos are consumed at the receiving end of the link, before slack
// buffers and reassemblers: they are control symbols, not worm flits, and
// never occupy downstream buffer space (Myrinet's STOP/GO symbols have the
// same out-of-band-in-band character).

import (
	"fmt"

	"wormlan/internal/des"
	"wormlan/internal/flit"
	"wormlan/internal/rng"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
)

// HelloSink consumes hello protocol events from the fabric.  Implemented
// by liveness.Monitor; defined here so network need not import it.
type HelloSink interface {
	// HelloSeen reports a hello arrival at the receiving end of a link.
	HelloSeen(node topology.NodeID, port topology.PortID, delay des.Time, now des.Time)
	// HelloTick runs once per fabric tick while the protocol is active, so
	// the sink can expire hello deadlines.
	HelloTick(now des.Time)
}

// HelloConfig parameterizes the hello wire engine.
type HelloConfig struct {
	// Interval is the per-link hello period; Jitter the maximum seeded
	// extra delay per hello.  Both must be positive.
	Interval des.Time
	Jitter   des.Time
	// Seed feeds the per-link jitter rngs.
	Seed uint64
	// Until stops hello transmission (and sink ticks): the fabric must be
	// able to go idle for drain-based invariant checks, so the protocol
	// runs over a bounded horizon rather than forever.
	Until des.Time
	// Sink receives arrivals and ticks.
	Sink HelloSink
}

// HelloEndpoint describes the receiving end of one directional link, in
// the fabric's deterministic link construction order.
type HelloEndpoint struct {
	Node  topology.NodeID
	Port  topology.PortID
	Delay des.Time
}

// HelloEndpoints lists the receiving end of every directional link, in
// construction order — the endpoint set a liveness monitor should watch.
//
//wormlint:alloc setup-time snapshot for monitor wiring, not on the tick path
func (f *Fabric) HelloEndpoints() []HelloEndpoint {
	out := make([]HelloEndpoint, len(f.links))
	for i, l := range f.links {
		out[i] = HelloEndpoint{Node: l.dstNode, Port: l.dstPort, Delay: des.Time(l.delay)}
	}
	return out
}

// LinkAlive reports ground-truth liveness of the directional link arriving
// at port p of node n (i.e. whether the cable is actually usable).  It is
// the false-positive classifier for detection statistics; no protocol
// decision may depend on it.
func (f *Fabric) LinkAlive(n topology.NodeID, p topology.PortID) bool {
	return !f.fail.LinkDead(f.G, n, p)
}

// EnableHello starts the hello engine.  Call once, before the kernel runs.
//
//wormlint:alloc one-time engine setup; sizes the per-link due/rng tables
func (f *Fabric) EnableHello(cfg HelloConfig) error {
	if f.hello != nil {
		return fmt.Errorf("network: hello engine already enabled")
	}
	if cfg.Interval <= 0 || cfg.Jitter < 0 {
		return fmt.Errorf("network: hello interval %d / jitter %d out of range", cfg.Interval, cfg.Jitter)
	}
	if cfg.Until <= 0 {
		return fmt.Errorf("network: hello engine needs a positive Until horizon")
	}
	if cfg.Sink == nil {
		return fmt.Errorf("network: hello engine needs a sink")
	}
	f.hello = &cfg
	f.helloDue = make([]des.Time, len(f.links))
	f.helloRng = make([]*rng.Source, len(f.links))
	now := f.K.Now()
	for i := range f.links {
		// Stream index offsets the hello stream space away from other
		// subsystems; each link gets its own jittered phase.
		f.helloRng[i] = rng.New(cfg.Seed, helloStreamBase+uint64(i))
		f.helloDue[i] = now + 1 + des.Time(f.helloRng[i].Intn(int(cfg.Interval)))
	}
	f.activate()
	return nil
}

// helloStreamBase namespaces the per-link hello rng streams.
const helloStreamBase uint64 = 0x4e11_0000_0000

// helloNext schedules link i's next hello.
func (f *Fabric) helloNext(i int) {
	jit := des.Time(0)
	if f.hello.Jitter > 0 {
		jit = des.Time(f.helloRng[i].Intn(int(f.hello.Jitter) + 1))
	}
	f.helloDue[i] += f.hello.Interval + jit
}

// helloPhase runs after the transmit phases of Fabric.Tick: every link
// whose hello is due sends one if the wire will take it.  A slot already
// carrying a data flit or a STOP-held sending end defers the hello (it
// stays due and retries next tick); a dead link eats it silently.
func (f *Fabric) helloPhase(now des.Time) {
	if f.hello == nil || now > f.hello.Until {
		return
	}
	// The protocol keeps the fabric clocked until its horizon, even when no
	// data is in flight — liveness probing is perpetual activity.
	f.work = true
	for i, l := range f.links {
		if now < f.helloDue[i] {
			continue
		}
		if l.dead {
			// Black hole: the receiver will miss this hello.  The schedule
			// still advances so a revived link resumes its normal cadence
			// instead of bursting.
			f.ctr.HellosLost++
			f.helloNext(i)
			continue
		}
		if l.occupied(l.cls.slot) || l.stopMask != 0 {
			// Congestion: data owns the wire (or the delayed STOP state
			// holds the sending end).  The hello waits — this is the
			// mechanism by which saturation mimics death.
			f.ctr.HellosDeferred++
			continue
		}
		l.send(int64(now), flit.Flit{Tag: flit.Tag{Kind: flit.Hello}})
		f.ctr.HellosSent++
		if f.rec != nil {
			f.emit(now, trace.EvHelloSent, l.srcNode, int(l.srcPort), 0, int64(i))
		}
		f.helloNext(i)
	}
	f.hello.Sink.HelloTick(now)
}

// helloRecv consumes a hello flit arriving at the receiving end of l.
func (f *Fabric) helloRecv(l *dlink, now des.Time) {
	f.ctr.HellosSeen++
	f.hello.Sink.HelloSeen(l.dstNode, l.dstPort, des.Time(l.delay), now)
}

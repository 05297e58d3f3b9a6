package fault

// Hello detection mode: instead of the injector telling the recovery
// pipeline the topology changed (the oracle), an in-band liveness protocol
// (internal/liveness) watches every directional link and its local up/down
// verdicts drive the same relabel -> route-rebuild -> adapter.Reroute
// pipeline.
//
// The crucial difference from the oracle: recovery acts on the *detected*
// failure set, not the true one.  A congestion-starved link that missed its
// hellos is genuinely routed around (a false positive costs capacity), and
// a failure the detector has not yet noticed keeps black-holing worms (the
// adapter's retransmit timers carry the traffic until detection catches
// up).  Detection latency, false positives, and flap counts come out as
// DetectionStats.

import (
	"fmt"

	"wormlan/internal/des"
	"wormlan/internal/liveness"
	"wormlan/internal/network"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
	"wormlan/internal/updown"
)

// DetectMode selects how topology changes are noticed.
type DetectMode uint8

const (
	// DetectOracle is the paper's setting: the fault injector itself
	// triggers recovery RemapDelay after each change.  The default.
	DetectOracle DetectMode = iota
	// DetectHello runs the in-band hello/liveness protocol; recovery acts
	// on its verdicts.
	DetectHello
)

// String names the mode.
func (m DetectMode) String() string {
	switch m {
	case DetectOracle:
		return "oracle"
	case DetectHello:
		return "hello"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ParseDetectMode parses a -detect flag value.
func ParseDetectMode(s string) (DetectMode, error) {
	switch s {
	case "", "oracle":
		return DetectOracle, nil
	case "hello":
		return DetectHello, nil
	default:
		return 0, fmt.Errorf("fault: unknown detection mode %q (want oracle or hello)", s)
	}
}

// DefaultConvergeDelay is the hello mode's verdict-to-reroute latency: the
// modelled mapper convergence and table distribution that the oracle's
// RemapDelay also covers, minus the detection share the protocol now
// measures for real.
const DefaultConvergeDelay des.Time = 128

// DetectionStats summarizes one run of the hello detection mode.  All
// fields are comparable, so two byte-identical runs produce equal values.
type DetectionStats struct {
	// Liveness is the detector's own accounting (misses, verdicts, false
	// positives, flaps).
	Liveness liveness.Stats
	// DetectToReroute measures verdict-to-recovery latency: for every
	// verdict, the time until the remap acting on it completed.
	DetectToReroute trace.Histogram
	// FaultToDetect measures true detection latency: for every correct
	// down verdict, the time since the link actually died.
	FaultToDetect trace.Histogram
	// Remaps counts verdict-driven recoveries that completed.
	Remaps int64
}

// detState is the injector's hello-mode bookkeeping.
type detState struct {
	mon *liveness.Monitor
	// down is the detected failure set: every cable the protocol currently
	// believes dead.  WithoutEdges copies it, so later verdicts never touch
	// an installed routing.
	down *updown.Failures
	// downSince is ground truth from applied plan events: when each directed
	// edge actually died.  Statistics only — recovery never reads it.
	downSince map[updown.Edge]des.Time
	// pending holds verdict times awaiting the next completed remap.
	pending      []des.Time
	remapPending bool

	detectToReroute trace.Histogram
	faultToDetect   trace.Histogram
	remaps          int64
}

// setupHello builds the liveness monitor over every directional link and
// starts the fabric's hello engine.
func (inj *Injector) setupHello() error {
	cfg := &inj.Cfg
	if err := cfg.Hello.Validate(); err != nil {
		return err
	}
	cfg.Hello = cfg.Hello.WithDefaults()
	if cfg.HelloUntil <= 0 {
		return fmt.Errorf("fault: hello detection needs a positive HelloUntil horizon")
	}
	wire := inj.F.HelloEndpoints()
	eps := make([]liveness.Endpoint, len(wire))
	for i, w := range wire {
		eps[i] = liveness.Endpoint{Node: w.Node, Port: w.Port, Delay: w.Delay}
	}
	mon, err := liveness.New(cfg.Hello, eps, inj.F.LinkAlive, cfg.Recorder)
	if err != nil {
		return err
	}
	mon.OnVerdict = inj.onVerdict
	if err := inj.F.EnableHello(network.HelloConfig{
		Interval: cfg.Hello.Interval,
		Jitter:   cfg.Hello.Jitter,
		Seed:     cfg.Hello.Seed,
		Until:    cfg.HelloUntil,
		Sink:     mon,
	}); err != nil {
		return err
	}
	inj.det = &detState{
		mon:             mon,
		down:            updown.NewFailures(),
		downSince:       make(map[updown.Edge]des.Time),
		detectToReroute: trace.Histogram{Name: "detect-to-reroute"},
		faultToDetect:   trace.Histogram{Name: "fault-to-detect"},
	}
	return nil
}

// Detection returns a snapshot of the hello mode's statistics, nil in
// oracle mode.
func (inj *Injector) Detection() *DetectionStats {
	if inj.det == nil {
		return nil
	}
	return &DetectionStats{
		Liveness:        inj.det.mon.Stats(),
		DetectToReroute: inj.det.detectToReroute,
		FaultToDetect:   inj.det.faultToDetect,
		Remaps:          inj.det.remaps,
	}
}

// edgePair returns both directed sides of the cable at (n, p).
func edgePair(g *topology.Graph, n topology.NodeID, p topology.PortID) (updown.Edge, updown.Edge) {
	port := g.Node(n).Ports[p]
	return updown.Edge{Node: n, Port: p}, updown.Edge{Node: port.Peer, Port: port.PeerPort}
}

// trackTruth records when edges actually die and revive, so FaultToDetect
// can be measured.  Recovery never reads this state.
func (d *detState) trackTruth(inj *Injector, e Event) {
	g := inj.F.G
	now := inj.K.Now()
	mark := func(n topology.NodeID, p topology.PortID) {
		a, b := edgePair(g, n, p)
		if inj.F.LinkAlive(n, p) {
			delete(d.downSince, a)
			delete(d.downSince, b)
			return
		}
		if _, ok := d.downSince[a]; !ok {
			d.downSince[a] = now
			d.downSince[b] = now
		}
	}
	//wormlint:partial CorruptFlit and HostStall never change link aliveness, so the oracle has nothing to mark
	switch e.Kind {
	case LinkDown, LinkUp:
		mark(e.Node, e.Port)
	case SwitchDown, SwitchUp:
		for pi, p := range g.Node(e.Node).Ports {
			if p.Wired() {
				mark(e.Node, topology.PortID(pi))
			}
		}
	}
}

// onVerdict feeds one liveness decision into the detected failure set and
// schedules a recovery pass.
func (inj *Injector) onVerdict(v liveness.Verdict) {
	d := inj.det
	a, b := edgePair(inj.F.G, v.Node, v.Port)
	if v.Up {
		delete(d.down.Links, a)
		delete(d.down.Links, b)
	} else {
		d.down.FailLink(inj.F.G, v.Node, v.Port)
		if t, ok := d.downSince[a]; ok && !v.FalsePositive {
			d.faultToDetect.Add(float64(v.At - t))
		}
	}
	d.pending = append(d.pending, v.At)
	inj.coalesce(&d.remapPending, DefaultConvergeDelay, inj.remapDetected)
}

// remapDetected runs the recovery pipeline over the *detected* failure set.
// False positives really are routed around; undetected failures really are
// still routed into.
func (inj *Injector) remapDetected() {
	d := inj.det
	if !inj.rebuild(d.down) {
		return
	}
	d.remaps++
	now := inj.K.Now()
	for _, tv := range d.pending {
		d.detectToReroute.Add(float64(now - tv))
	}
	d.pending = d.pending[:0]
}

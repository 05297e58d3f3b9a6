// Package fault schedules deterministic failure events against a running
// fabric and drives recovery: when the topology changes it relabels the
// surviving subgraph up*/down* (updown.WithoutEdges), rebuilds the route
// table, and hands the result to the adapter layer via a callback.
//
// The paper's Myrinet setting assumes exactly this division of labour: the
// fabric detects nothing, worms in flight at the moment of a failure are
// simply lost, and a background mapper daemon notices the change and
// re-maps.  InjectorConfig.RemapDelay models the daemon's detection plus
// convergence latency.
package fault

import (
	"fmt"
	"sort"

	"wormlan/internal/des"
	"wormlan/internal/liveness"
	"wormlan/internal/network"
	"wormlan/internal/rng"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
	"wormlan/internal/updown"
)

// Kind classifies a scheduled fault event.
type Kind uint8

// Fault event kinds.
const (
	// LinkDown kills the full-duplex cable at (Node, Port).
	LinkDown Kind = iota
	// LinkUp revives the cable at (Node, Port).
	LinkUp
	// SwitchDown crashes switch Node.
	SwitchDown
	// SwitchUp restarts switch Node.
	SwitchUp
	// CorruptFlit damages one in-flight payload flit (Node is the scan
	// hint into the link array).
	CorruptFlit
	// HostStall freezes host Node's transmit side for Dur byte-times.
	HostStall
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case SwitchDown:
		return "switch-down"
	case SwitchUp:
		return "switch-up"
	case CorruptFlit:
		return "corrupt-flit"
	case HostStall:
		return "host-stall"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	At   des.Time
	Kind Kind
	// Node/Port identify the target (see the Kind constants).
	Node topology.NodeID
	Port topology.PortID
	// Dur is the stall duration for HostStall.
	Dur des.Time
}

// Plan is a deterministic fault schedule.
type Plan struct {
	Events []Event
}

// Add appends an event.
func (p *Plan) Add(e Event) *Plan { p.Events = append(p.Events, e); return p }

// LinkDown schedules a cable kill at time t.
func (p *Plan) LinkDown(t des.Time, n topology.NodeID, port topology.PortID) *Plan {
	return p.Add(Event{At: t, Kind: LinkDown, Node: n, Port: port})
}

// LinkUp schedules a cable revival at time t.
func (p *Plan) LinkUp(t des.Time, n topology.NodeID, port topology.PortID) *Plan {
	return p.Add(Event{At: t, Kind: LinkUp, Node: n, Port: port})
}

// SwitchDown schedules a switch crash at time t.
func (p *Plan) SwitchDown(t des.Time, n topology.NodeID) *Plan {
	return p.Add(Event{At: t, Kind: SwitchDown, Node: n})
}

// SwitchUp schedules a switch restart at time t.
func (p *Plan) SwitchUp(t des.Time, n topology.NodeID) *Plan {
	return p.Add(Event{At: t, Kind: SwitchUp, Node: n})
}

// Corrupt schedules a flit corruption at time t (hint selects the link
// scan start for determinism).
func (p *Plan) Corrupt(t des.Time, hint int) *Plan {
	return p.Add(Event{At: t, Kind: CorruptFlit, Node: topology.NodeID(hint)})
}

// Stall schedules a host-adapter stall of duration d at time t.
func (p *Plan) Stall(t des.Time, h topology.NodeID, d des.Time) *Plan {
	return p.Add(Event{At: t, Kind: HostStall, Node: h, Dur: d})
}

// Options parameterizes RandomPlan.
type Options struct {
	// Seed makes the plan deterministic.
	Seed uint64
	// LinkDowns / SwitchDowns / Corruptions / Stalls are the number of
	// events of each kind to draw.
	LinkDowns   int
	SwitchDowns int
	Corruptions int
	Stalls      int
	// Window is the time span [1, Window] over which fault times are
	// drawn.
	Window des.Time
	// Heal, when positive, schedules the matching LinkUp/SwitchUp this
	// many byte-times after each down event.
	Heal des.Time
	// StallDur is the host-stall duration (default Window/8).
	StallDur des.Time
}

// RandomPlan draws a deterministic random fault schedule against g.  Link
// faults are drawn over switch-to-switch cables only (killing a host link
// just isolates the host; the interesting recovery dynamics are in the
// fabric core), switch faults over all switches.
func RandomPlan(g *topology.Graph, o Options) *Plan {
	r := rng.New(o.Seed, 0x5eed_fa17)
	if o.Window <= 0 {
		o.Window = 1 << 16
	}
	if o.StallDur <= 0 {
		o.StallDur = o.Window / 8
	}
	at := func() des.Time { return 1 + des.Time(r.Intn(int(o.Window))) }

	// Candidate switch-switch cables, one entry per cable (lower node ID
	// side), in deterministic order.
	type cable struct {
		n topology.NodeID
		p topology.PortID
	}
	var cables []cable
	for _, sw := range g.Switches() {
		for pi, p := range g.Node(sw).Ports {
			if !p.Wired() || g.Node(p.Peer).Kind != topology.Switch {
				continue
			}
			if p.Peer > sw || (p.Peer == sw && p.PeerPort > topology.PortID(pi)) {
				cables = append(cables, cable{sw, topology.PortID(pi)})
			}
		}
	}
	switches := g.Switches()
	hosts := g.Hosts()
	plan := &Plan{}
	for i := 0; i < o.LinkDowns && len(cables) > 0; i++ {
		c := cables[r.Intn(len(cables))]
		t := at()
		plan.LinkDown(t, c.n, c.p)
		if o.Heal > 0 {
			plan.LinkUp(t+o.Heal, c.n, c.p)
		}
	}
	for i := 0; i < o.SwitchDowns && len(switches) > 0; i++ {
		sw := switches[r.Intn(len(switches))]
		t := at()
		plan.SwitchDown(t, sw)
		if o.Heal > 0 {
			plan.SwitchUp(t+o.Heal, sw)
		}
	}
	for i := 0; i < o.Corruptions; i++ {
		plan.Corrupt(at(), r.Intn(1<<16))
	}
	for i := 0; i < o.Stalls && len(hosts) > 0; i++ {
		plan.Stall(at(), hosts[r.Intn(len(hosts))], o.StallDur)
	}
	plan.Sort()
	return plan
}

// Sort orders events by time (stable on insertion order for ties).
func (p *Plan) Sort() {
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
}

// Counters aggregates injector activity.
type Counters struct {
	LinkDowns   int64
	LinkUps     int64
	SwitchDowns int64
	SwitchUps   int64
	Corruptions int64
	// CorruptMisses counts CorruptFlit events that found no payload flit
	// in flight to damage.
	CorruptMisses int64
	Stalls        int64
	// Remaps counts successful route recomputations; RemapFailures counts
	// recomputations that could not produce any routing (e.g. no surviving
	// switches).
	Remaps        int64
	RemapFailures int64
}

// DefaultRemapDelay is the oracle mode's modelled recovery latency: the
// time between a topology change and the completion of the mapper daemon's
// re-map, covering detection, mapper convergence, and route-table
// distribution in one lump.  512 byte-times is 6.4 µs at 640 Mb/s —
// optimistic for a real daemon, but the paper treats detection as free and
// this constant is exactly the knob DetectHello replaces with a measured
// quantity.  Surfaced through sim.Config.RemapDelay.
const DefaultRemapDelay des.Time = 512

// InjectorConfig parameterizes recovery behaviour.
type InjectorConfig struct {
	// RemapDelay is the oracle mode's detection-plus-convergence latency
	// (default DefaultRemapDelay).  Unused in hello mode, where detection
	// latency is a protocol outcome and only DefaultConvergeDelay is modelled.
	RemapDelay des.Time
	// OnRemap receives each recomputed routing and route table; the
	// adapter layer installs them (see adapter.System.Reroute).
	OnRemap func(ud *updown.Routing, tbl *updown.Table)

	// Mode selects how topology changes are noticed: DetectOracle (the
	// default: the injector itself triggers recovery, as the paper's
	// mapper-daemon setting assumes) or DetectHello (the in-band liveness
	// protocol of internal/liveness discovers them).
	Mode DetectMode
	// Hello parameterizes the liveness protocol in hello mode; zero fields
	// take the liveness package defaults.
	Hello liveness.Config
	// HelloUntil bounds the hello protocol's horizon (required in hello
	// mode): hellos stop after this time so the fabric can drain for the
	// quiescence invariants.
	HelloUntil des.Time
	// Recorder, when non-nil, receives the liveness event stream
	// (hello-missed, peer-down, peer-up, flap-suppressed).
	Recorder trace.Recorder
}

// Injector replays a Plan against a fabric on its kernel and performs
// route recovery after every topology change.
type Injector struct {
	K   *des.Kernel
	F   *network.Fabric
	Cfg InjectorConfig

	ctr          Counters
	remapPending bool

	// det holds the hello-mode detection state; nil in oracle mode.
	det *detState
}

// NewInjector validates the plan, schedules every event on the kernel, and
// returns the injector.  Call before running the kernel.  In hello mode it
// also builds the liveness monitor and starts the fabric's hello engine.
func NewInjector(k *des.Kernel, f *network.Fabric, plan *Plan, cfg InjectorConfig) (*Injector, error) {
	if cfg.RemapDelay <= 0 {
		cfg.RemapDelay = DefaultRemapDelay
	}
	if err := plan.Validate(f.G); err != nil {
		return nil, err
	}
	inj := &Injector{K: k, F: f, Cfg: cfg}
	if cfg.Mode == DetectHello {
		if err := inj.setupHello(); err != nil {
			return nil, err
		}
	}
	for _, e := range plan.Events {
		ev := e
		k.At(ev.At, func() { inj.apply(ev) })
	}
	return inj, nil
}

// Counters returns a snapshot of injector activity.
func (inj *Injector) Counters() Counters { return inj.ctr }

func (inj *Injector) apply(e Event) {
	switch e.Kind {
	case LinkDown:
		if err := inj.F.FailLink(e.Node, e.Port); err == nil {
			inj.ctr.LinkDowns++
			inj.topoChanged(e)
		}
	case LinkUp:
		if err := inj.F.RestoreLink(e.Node, e.Port); err == nil {
			inj.ctr.LinkUps++
			inj.topoChanged(e)
		}
	case SwitchDown:
		if err := inj.F.FailSwitch(e.Node); err == nil {
			inj.ctr.SwitchDowns++
			inj.topoChanged(e)
		}
	case SwitchUp:
		if err := inj.F.RestoreSwitch(e.Node); err == nil {
			inj.ctr.SwitchUps++
			inj.topoChanged(e)
		}
	case CorruptFlit:
		if inj.F.CorruptOnLink(int(e.Node)) {
			inj.ctr.Corruptions++
		} else {
			inj.ctr.CorruptMisses++
		}
	case HostStall:
		if err := inj.F.StallHost(e.Node, inj.K.Now()+e.Dur); err == nil {
			inj.ctr.Stalls++
		}
	}
}

// topoChanged reacts to a successfully applied topology event.  The oracle
// mode schedules recovery directly — the injector *is* the detector.  In
// hello mode recovery is the liveness protocol's job: the injector only
// records ground truth so detection latency can be measured.
func (inj *Injector) topoChanged(e Event) {
	if inj.det != nil {
		inj.det.trackTruth(inj, e)
		return
	}
	inj.coalesce(&inj.remapPending, inj.Cfg.RemapDelay, func() { inj.rebuild(inj.F.Failures()) })
}

// coalesce turns a burst of triggers into one recovery pass: fn runs delay
// after the first trigger of the burst, over whatever the fabric (or the
// detector) looks like by then — the mapper daemon converges once.
func (inj *Injector) coalesce(pending *bool, delay des.Time, fn func()) {
	if *pending {
		return
	}
	*pending = true
	inj.K.After(delay, func() {
		*pending = false
		fn()
	})
}

// rebuild is the recovery pipeline: up/down relabelling of the survivors of
// fail (switches stranded from the root count as dead), route table rebuild,
// OnRemap.  It reports whether the new routing was installed.
func (inj *Injector) rebuild(fail *updown.Failures) bool {
	ud, err := updown.WithoutEdges(inj.F.G, topology.None, fail)
	if err != nil {
		inj.ctr.RemapFailures++
		return false
	}
	tbl, err := ud.NewTableSurviving(false)
	if err != nil {
		inj.ctr.RemapFailures++
		return false
	}
	inj.F.SetRouting(ud)
	inj.ctr.Remaps++
	if inj.Cfg.OnRemap != nil {
		inj.Cfg.OnRemap(ud, tbl)
	}
	return true
}

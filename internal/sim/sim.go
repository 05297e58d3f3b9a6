// Package sim composes the full simulation stack — topology, up/down
// routing, byte-level fabric, host-adapter multicast protocol, Poisson
// traffic, and statistics — into single-call experiments, reproducing the
// setup of Section 7 of the paper.
package sim

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"wormlan/internal/adapter"
	"wormlan/internal/des"
	"wormlan/internal/fault"
	"wormlan/internal/liveness"
	"wormlan/internal/multicast"
	"wormlan/internal/network"
	"wormlan/internal/stats"
	"wormlan/internal/switchmc"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
	"wormlan/internal/traffic"
	"wormlan/internal/updown"
	"wormlan/internal/vcroute"
)

// forceTrace force-enables tracing (into a bounded ring) and metrics for
// every run when the WORMTRACE environment variable is non-empty.  CI sets
// it to run the whole tier-1 suite down the instrumented path; it must not
// change any result, which the replay tests verify.
var forceTrace = os.Getenv("WORMTRACE") != ""

// Scheme is a named multicast protocol configuration from the paper's
// evaluation.
type Scheme struct {
	Name       string
	Mode       adapter.Mode
	CutThrough bool
	// SwitchLevel selects fabric replication (Section 3, scheme A with
	// tree-restricted routing) instead of host-adapter forwarding.
	SwitchLevel bool
}

// The schemes compared in Figures 10 and 11.
var (
	// HamiltonianSF: Hamiltonian circuit with store-and-forward at each
	// node (the only option on real Myrinet hardware).
	HamiltonianSF = Scheme{Name: "hamiltonian", Mode: adapter.ModeCircuit}
	// HamiltonianCT: Hamiltonian circuit with immediate cut-through when
	// the output port is available.
	HamiltonianCT = Scheme{Name: "hamiltonian-cut-thru", Mode: adapter.ModeCircuit, CutThrough: true}
	// TreeSF: rooted tree with store-and-forward.
	TreeSF = Scheme{Name: "tree", Mode: adapter.ModeTreeRooted}
	// TreeCT: rooted tree with cut-through.
	TreeCT = Scheme{Name: "tree-cut-thru", Mode: adapter.ModeTreeRooted, CutThrough: true}
	// TreeFlood: flood-from-originator tree (unordered, lowest latency).
	TreeFlood = Scheme{Name: "tree-flood", Mode: adapter.ModeTreeFlood}
	// SwitchFabric: replication inside the crossbar switches with all
	// traffic restricted to the up/down spanning tree (Section 3).
	SwitchFabric = Scheme{Name: "switch-fabric", SwitchLevel: true}
)

// Config describes one simulation run.
type Config struct {
	// Graph is the topology under test.
	Graph *topology.Graph
	// Scheme selects the multicast protocol.
	Scheme Scheme
	// TotalOrdering serializes circuit multicasts via the lowest-ID member.
	TotalOrdering bool

	// OfferedLoad is the generated output-link utilization per host.
	OfferedLoad float64
	// MulticastProb is the probability a generated worm is multicast.
	MulticastProb float64
	// MeanWorm is the mean worm length in bytes (default 400).
	MeanWorm int

	// NumGroups random groups of GroupSize members each.
	NumGroups, GroupSize int
	// Groups, when non-nil, supplies explicit group memberships keyed by
	// group ID (e.g. from a configuration file) instead of random
	// assignment.
	Groups map[int][]topology.NodeID

	// Warmup is discarded; Measure is the sample window; Drain bounds how
	// long the run may continue past generation stop to let in-flight
	// worms land (default Measure/2).
	Warmup, Measure, Drain des.Time

	// Seed makes the whole run reproducible.
	Seed uint64

	// Adapter overrides the adapter protocol defaults (Mode/CutThrough
	// fields are overwritten from Scheme).
	Adapter adapter.Config
	// Network overrides the fabric defaults.
	Network network.Config

	// Route selects the unicast routing scheme: "" or "updown" (the
	// deadlock-free spanning-tree routing the paper assumes), "vcmin"
	// (VC-partitioned minimal torus routing with dateline lane switching;
	// needs TorusGeom and at least two virtual channels — see
	// internal/vcroute), "fullmesh" (direct routing over a pairwise-
	// adjacent switch mesh, deadlock-free without VCs), "adaptive"
	// (Duato escape-lane routing: adaptive lanes >= 1 chosen per hop from
	// local occupancy, lane-0 up*/down* escape), "clos" (spine-
	// deterministic leaf-spine direct routing; needs ClosGeom), or
	// "shufflenet" (forward-column routing with wrap-count lanes; needs
	// ShuffleGeom and three virtual channels).  Per-scheme capabilities —
	// multicast traffic, switch-level replication, topology-change
	// recovery — are declared in routeSchemes and enforced by Validate.
	Route string `json:"route,omitempty"`
	// TorusGeom supplies the torus geometry for Route == "vcmin"; build
	// the Graph with topology.TorusWithGeom to obtain it.
	TorusGeom *topology.TorusGeom `json:"-"`
	// ClosGeom supplies the leaf-spine geometry for Route == "clos"; build
	// the Graph with topology.ClosWithGeom to obtain it.
	ClosGeom *topology.ClosGeom `json:"-"`
	// ShuffleGeom supplies the shufflenet geometry for Route ==
	// "shufflenet"; build the Graph with topology.BidirShufflenetWithGeom.
	ShuffleGeom *topology.ShuffleGeom `json:"-"`

	// Tracer, when non-nil, receives the run's worm-lifecycle and protocol
	// event stream (see internal/trace).  Tracing observes; it never
	// changes results: a traced run's measurements are identical to an
	// untraced one's.  Excluded from serialized configurations.
	Tracer trace.Recorder `json:"-"`
	// Metrics enables per-switch crossbar occupancy sampling and latency
	// histograms, surfaced via Results.Channels / Results.Switches /
	// Results.Histograms.
	Metrics bool

	// FaultPlan, when non-nil, is a failure schedule injected against the
	// fabric during the run.  Topology changes trigger mapper re-runs and
	// route recomputation over the survivors (see internal/fault).  Only
	// supported with adapter-level schemes: switch-level replication has
	// no recovery protocol.
	FaultPlan *fault.Plan
	// RemapDelay is the oracle mode's detection-plus-convergence latency
	// after a topology change (default fault.DefaultRemapDelay, 512
	// byte-times); see that constant for what the lump models.  Ignored
	// under Detect == fault.DetectHello, where detection latency is
	// measured rather than assumed.
	RemapDelay des.Time

	// Detect selects the failure-detection mode: fault.DetectOracle (the
	// default — the injector triggers recovery directly, the paper's
	// mapper-daemon assumption) or fault.DetectHello (the in-band
	// hello/liveness protocol of internal/liveness; detection latency,
	// false positives, and flaps surface in Results.Detection).  Hello
	// detection may run without a FaultPlan: under congestion alone it
	// measures the protocol's false-positive behaviour.
	Detect fault.DetectMode `json:"detect,omitempty"`
	// Liveness overrides hello-protocol parameters in hello mode; nil
	// takes the liveness package defaults.
	Liveness *liveness.Config `json:"liveness,omitempty"`
}

// Results aggregates one run's measurements.
type Results struct {
	Config Config

	// MCLatency is the per-destination multicast latency (delivery time
	// minus origination time), over deliveries created in the window.
	MCLatency stats.Welford
	// UniLatency is unicast end-to-end latency over the window.
	UniLatency stats.Welford
	// AllLatency combines both (the "delay" of Figure 11).
	AllLatency stats.Welford

	// MCDeliveries / UniDeliveries count window deliveries.
	MCDeliveries, UniDeliveries int64
	// ThroughputPerHost is delivered payload bytes per byte-time per host
	// over the window (includes multicast copies).
	ThroughputPerHost float64

	// GeneratedWorms / GeneratedMC count worms created by the generator.
	GeneratedWorms, GeneratedMC int64

	Adapter adapter.Stats
	Fabric  network.Counters
	// Fault aggregates injector activity when Config.FaultPlan is set.
	Fault fault.Counters
	// Detection reports the hello protocol's outcomes (verdict counts,
	// false positives, flaps, detection-to-reroute latency quantiles) when
	// Config.Detect == fault.DetectHello; nil in oracle mode.
	Detection *fault.DetectionStats `json:",omitempty"`

	// Channels / Switches are the fabric's per-link utilization and
	// per-switch crossbar occupancy metrics; Histograms are the latency
	// distributions over the measurement window.  All nil/empty unless
	// Config.Metrics was set.
	Channels   []trace.ChannelStat `json:",omitempty"`
	Switches   []trace.SwitchStat  `json:",omitempty"`
	Histograms *trace.LatencyHists `json:",omitempty"`
	// FabricTicks is the active-tick denominator for Switches occupancy.
	FabricTicks int64 `json:",omitempty"`

	// EventsDispatched / MaxQueueDepth / EventsPerTick are kernel-level run
	// statistics (always collected; they cost nothing).  EventsPerTick is
	// the ratio of dispatched events to fabric tick passes: ~1.0 when the
	// byte-time clock dominates, higher when timers and arrivals do.
	EventsDispatched int64
	MaxQueueDepth    int
	EventsPerTick    float64

	// Stalled is set when worms remained frozen in the fabric at the end
	// of the run — the observable symptom of a deadlock.
	Stalled bool
	// Drained is set when the event queue emptied before the deadline:
	// traffic generation stopped, every retry resolved, and nothing is in
	// flight.  Only on a drained run do the quiescent invariants
	// (conservation, no held channels) have to hold exactly.
	Drained bool
	// HeldChannels counts switch outputs still bound to a worm when the
	// run stopped — the wormhole equivalent of leaked locks.  Zero on any
	// drained run.
	HeldChannels int
	// EndTime is the simulation time at which the run stopped.
	EndTime des.Time
}

// routeCaps declares what a routing scheme supports.  Every hard
// rejection in Validate traces back to one of these flags, so adding a
// scheme means declaring its capabilities here, not editing validation
// logic.
type routeCaps struct {
	// multicast: the adapter-level multicast embeddings (Hamiltonian
	// circuit, trees) may ride this scheme's unicast tables.
	multicast bool
	// switchMC: tree-restricted switch-level replication works — it
	// requires the routes to BE the up/down spanning tree, so only the
	// up/down scheme qualifies.
	switchMC bool
	// recovery: topology changes rebuild this scheme's table over the
	// survivors (fault plans with link/switch events and hello detection
	// are allowed).
	recovery bool
}

// routeSchemes is the capability registry of legal Config.Route values.
// All current schemes carry adapter multicast (the embeddings send plain
// unicast worms host-to-host) and rebuild-on-remap recovery; switch-level
// replication stays up/down-only.
var routeSchemes = map[string]routeCaps{
	"":           {multicast: true, switchMC: true, recovery: true},
	"updown":     {multicast: true, switchMC: true, recovery: true},
	"vcmin":      {multicast: true, recovery: true},
	"fullmesh":   {multicast: true, recovery: true},
	"adaptive":   {multicast: true, recovery: true},
	"clos":       {multicast: true, recovery: true},
	"shufflenet": {multicast: true, recovery: true},
}

// Routes returns the legal Config.Route values, sorted ("" is the updown
// default and is not listed separately).
func Routes() []string {
	names := make([]string, 0, len(routeSchemes))
	for n := range routeSchemes {
		if n != "" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Validate checks the routing scheme and its capability combinations
// without running anything, so CLIs can reject a bad -route (or an
// unsupported combination) with the same error a Run would produce.
// Geometry requirements are only checked when a Graph is present, letting
// flag-level validation work on an otherwise zero Config.
func (cfg *Config) Validate() error {
	caps, ok := routeSchemes[cfg.Route]
	if !ok {
		return fmt.Errorf("sim: unknown route scheme %q (want one of %s)", cfg.Route, strings.Join(Routes(), ", "))
	}
	if cfg.Scheme.SwitchLevel && !caps.switchMC {
		return fmt.Errorf("sim: route %q is incompatible with switch-level replication (tree-restricted routing required)", cfg.Route)
	}
	if !caps.multicast && (cfg.MulticastProb != 0 || cfg.NumGroups > 0 || cfg.Groups != nil) {
		return fmt.Errorf("sim: route %q is unicast-only (multicast traffic configured)", cfg.Route)
	}
	if !caps.recovery {
		if cfg.FaultPlan != nil {
			for _, ev := range cfg.FaultPlan.Events {
				//wormlint:partial only topology-changing kinds are rejected; corruption and stalls need no route recovery
				switch ev.Kind {
				case fault.LinkDown, fault.LinkUp, fault.SwitchDown, fault.SwitchUp:
					return fmt.Errorf("sim: route %q has no topology-change recovery (fault plan schedules %s)", cfg.Route, ev.Kind)
				}
			}
		}
		if cfg.Detect == fault.DetectHello {
			return fmt.Errorf("sim: route %q does not support hello detection (suspicion recovery recomputes routes)", cfg.Route)
		}
	}
	if cfg.Graph != nil {
		switch {
		case cfg.Route == "vcmin" && cfg.TorusGeom == nil:
			return fmt.Errorf("sim: route vcmin needs the torus geometry (build the Graph with topology.TorusWithGeom)")
		case cfg.Route == "clos" && cfg.ClosGeom == nil:
			return fmt.Errorf("sim: route clos needs the leaf-spine geometry (build the Graph with topology.ClosWithGeom)")
		case cfg.Route == "shufflenet" && cfg.ShuffleGeom == nil:
			return fmt.Errorf("sim: route shufflenet needs the shufflenet geometry (build the Graph with topology.BidirShufflenetWithGeom)")
		}
	}
	return nil
}

// vcEncodedRoute reports whether the scheme's route bytes carry VC lane
// ids (vc<<6|port) rather than raw port numbers.
func vcEncodedRoute(route string) bool {
	switch route {
	case "vcmin", "adaptive", "shufflenet":
		return true
	}
	return false
}

// rebuildSchemeTable recomputes the Route scheme's table over the
// survivors after a remap: the recovery pipeline hands us the fresh
// up/down labelling (whose failure set is the detector's view), and each
// scheme derives its surviving table from it — pruning for the rigid
// schemes (vcmin, fullmesh), genuine rerouting for clos, shufflenet, and
// adaptive (which also reinstalls the fabric-side AdaptiveTable).
func rebuildSchemeTable(cfg *Config, fab *network.Fabric, ud *updown.Routing, tbl *updown.Table, nvc int) (*updown.Table, error) {
	switch cfg.Route {
	case "", "updown":
		return tbl, nil
	case "vcmin":
		return vcroute.TorusMinimalSurviving(cfg.Graph, cfg.TorusGeom, nvc, ud.Failures())
	case "fullmesh":
		return vcroute.FullMeshSurviving(cfg.Graph, ud.Failures())
	case "clos":
		return vcroute.Clos(cfg.Graph, cfg.ClosGeom, ud.Failures())
	case "shufflenet":
		return vcroute.Shufflenet(cfg.Graph, cfg.ShuffleGeom, nvc, ud.Failures())
	case "adaptive":
		at, err := network.NewAdaptiveTable(cfg.Graph, ud)
		if err != nil {
			return nil, err
		}
		if err := fab.SetAdaptive(at); err != nil {
			return nil, err
		}
		return vcroute.Adaptive(cfg.Graph, ud)
	}
	return nil, fmt.Errorf("sim: unknown route scheme %q", cfg.Route)
}

// Run executes one simulation.
func Run(cfg Config) (*Results, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("sim: nil topology")
	}
	if cfg.MeanWorm == 0 {
		cfg.MeanWorm = 400
	}
	if cfg.Measure == 0 {
		return nil, fmt.Errorf("sim: zero measure window")
	}
	if cfg.Drain == 0 {
		cfg.Drain = cfg.Measure / 2
	}
	if (cfg.FaultPlan != nil || cfg.Detect == fault.DetectHello) && cfg.Scheme.SwitchLevel {
		return nil, fmt.Errorf("sim: fault injection and hello detection are not supported with switch-level replication (no recovery protocol)")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := des.NewKernel()
	ud, err := updown.New(cfg.Graph, topology.None)
	if err != nil {
		return nil, err
	}
	// Observability: an explicit Tracer/Metrics request wins; otherwise the
	// WORMTRACE environment toggle forces both on, recording into a bounded
	// ring so arbitrarily long runs stay safe.
	tracer := cfg.Tracer
	metricsOn := cfg.Metrics
	if forceTrace {
		if tracer == nil {
			tracer = trace.NewRing(1 << 16)
		}
		metricsOn = true
	}
	// The network config must be settled before table construction: the
	// vcmin table encodes lane numbers that the fabric only understands
	// with VCHeaders on and enough lanes configured.
	ncfg := cfg.Network
	if ncfg.Recorder == nil {
		ncfg.Recorder = tracer
	}
	ncfg.Metrics = ncfg.Metrics || metricsOn
	var table *updown.Table
	switch cfg.Route {
	case "", "updown":
		table, err = ud.NewTable(false)
	case "vcmin":
		if ncfg.NumVCs < 2 {
			ncfg.NumVCs = 2
		}
		ncfg.VCHeaders = true
		table, err = vcroute.TorusMinimal(cfg.Graph, cfg.TorusGeom, ncfg.NumVCs)
	case "fullmesh":
		table, err = vcroute.FullMesh(cfg.Graph)
	case "adaptive":
		if ncfg.NumVCs < 2 {
			ncfg.NumVCs = 2
		}
		ncfg.VCHeaders = true
		table, err = vcroute.Adaptive(cfg.Graph, ud)
	case "clos":
		table, err = vcroute.Clos(cfg.Graph, cfg.ClosGeom, nil)
	case "shufflenet":
		if ncfg.NumVCs < 3 {
			ncfg.NumVCs = 3
		}
		ncfg.VCHeaders = true
		table, err = vcroute.Shufflenet(cfg.Graph, cfg.ShuffleGeom, ncfg.NumVCs, nil)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Route != "" && cfg.Route != "updown" {
		// One pass over the fresh table reports every broken pair at once —
		// a miswired builder or geometry is diagnosable in a single run.
		if verr := vcroute.ValidateTable(cfg.Graph, table, vcEncodedRoute(cfg.Route), true); verr != nil {
			return nil, verr
		}
	}
	fab, err := network.New(k, cfg.Graph, ud, ncfg)
	if err != nil {
		return nil, err
	}
	if cfg.Route == "adaptive" {
		at, aerr := network.NewAdaptiveTable(cfg.Graph, ud)
		if aerr != nil {
			return nil, aerr
		}
		if aerr := fab.SetAdaptive(at); aerr != nil {
			return nil, aerr
		}
	}
	hosts := cfg.Graph.Hosts()
	res := &Results{Config: cfg}
	var hists *trace.LatencyHists
	if metricsOn {
		hists = trace.NewLatencyHists()
		res.Histograms = hists
		k.Observe = func(des.Time) {
			hists.Queue.Add(float64(k.Pending()))
		}
	}
	windowStart := cfg.Warmup
	windowEnd := cfg.Warmup + cfg.Measure
	var windowBytes int64
	recordMC := func(created, now des.Time, payload int) {
		if created >= windowStart && created < windowEnd {
			lat := float64(now - created)
			res.MCLatency.Add(lat)
			res.AllLatency.Add(lat)
			res.MCDeliveries++
			if hists != nil {
				hists.MC.Add(lat)
				hists.All.Add(lat)
			}
		}
		if now >= windowStart && now < windowEnd {
			windowBytes += int64(payload)
		}
	}
	recordUni := func(created, now des.Time, payload int) {
		if created >= windowStart && created < windowEnd {
			lat := float64(now - created)
			res.UniLatency.Add(lat)
			res.AllLatency.Add(lat)
			res.UniDeliveries++
			if hists != nil {
				hists.Uni.Add(lat)
				hists.All.Add(lat)
			}
		}
		if now >= windowStart && now < windowEnd {
			windowBytes += int64(payload)
		}
	}

	type groupDef struct {
		id  int
		set []topology.NodeID
	}
	var groupDefs []groupDef
	var groupsOf map[topology.NodeID][]int
	switch {
	case cfg.Groups != nil:
		groupsOf = make(map[topology.NodeID][]int)
		ids := make([]int, 0, len(cfg.Groups))
		for id := range cfg.Groups {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			groupDefs = append(groupDefs, groupDef{id, cfg.Groups[id]})
			for _, h := range cfg.Groups[id] {
				groupsOf[h] = append(groupsOf[h], id)
			}
		}
	case cfg.NumGroups > 0:
		ms, gof, err := traffic.AssignGroups(hosts, cfg.NumGroups, cfg.GroupSize, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for gi, set := range ms {
			groupDefs = append(groupDefs, groupDef{gi, set})
		}
		groupsOf = gof
	}

	var sink traffic.Sink
	var sys *adapter.System
	if cfg.Scheme.SwitchLevel {
		swsys, err := switchmc.New(k, fab, ud, switchmc.Config{})
		if err != nil {
			return nil, err
		}
		swsys.SetRecorder(tracer)
		for _, gd := range groupDefs {
			grp, err := multicast.NewGroup(gd.id, gd.set)
			if err != nil {
				return nil, err
			}
			if err := swsys.AddGroup(grp); err != nil {
				return nil, err
			}
		}
		swsys.OnDeliver = func(d switchmc.Delivery) {
			if d.Multicast {
				recordMC(d.Worm.Created, d.At, d.Worm.PayloadLen)
			} else {
				recordUni(d.Worm.Created, d.At, d.Worm.PayloadLen)
			}
		}
		sink = swsys
	} else {
		acfg := cfg.Adapter
		acfg.Mode = cfg.Scheme.Mode
		acfg.CutThrough = cfg.Scheme.CutThrough
		acfg.TotalOrdering = cfg.TotalOrdering
		sys, err = adapter.NewSystem(k, fab, table, acfg, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sys.SetRecorder(tracer)
		for _, gd := range groupDefs {
			grp, err := multicast.NewGroup(gd.id, gd.set)
			if err != nil {
				return nil, err
			}
			if _, err := sys.AddGroup(grp); err != nil {
				return nil, err
			}
		}
		sys.OnAppDeliver = func(d adapter.AppDelivery) {
			if d.Transfer != nil {
				recordMC(d.Transfer.Created, d.At, d.Transfer.Payload)
			} else {
				recordUni(d.Worm.Created, d.At, d.Worm.PayloadLen)
			}
		}
		sink = sys
	}

	var inj *fault.Injector
	if cfg.FaultPlan != nil || cfg.Detect == fault.DetectHello {
		icfg := fault.InjectorConfig{
			RemapDelay: cfg.RemapDelay,
			Mode:       cfg.Detect,
			OnRemap: func(rud *updown.Routing, tbl *updown.Table) {
				ntbl, rerr := rebuildSchemeTable(&cfg, fab, rud, tbl, ncfg.NumVCs)
				if rerr != nil {
					// Scheme rebuilds only fail on construction-level
					// errors (bad geometry), which Validate and the
					// initial build should have excluded: stop the run
					// on the old routes and let Run return the error.
					k.Halt(fmt.Errorf("sim: route %q rebuild after remap: %w", cfg.Route, rerr))
					return
				}
				sys.Reroute(ntbl, rud.Reachable)
			},
		}
		if cfg.Detect == fault.DetectHello {
			if cfg.Liveness != nil {
				icfg.Hello = *cfg.Liveness
			}
			// Hellos stop with traffic generation: the drain phase then
			// empties the fabric so quiescence invariants stay checkable.
			icfg.HelloUntil = windowEnd
			icfg.Recorder = tracer
		}
		plan := cfg.FaultPlan
		if plan == nil {
			plan = &fault.Plan{}
		}
		inj, err = fault.NewInjector(k, fab, plan, icfg)
		if err != nil {
			return nil, err
		}
	}

	gen, err := traffic.New(k, traffic.Config{
		OfferedLoad:   cfg.OfferedLoad,
		MeanWorm:      cfg.MeanWorm,
		MulticastProb: cfg.MulticastProb,
		Until:         windowEnd,
	}, hosts, groupsOf, sink, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gen.Start()

	if err := k.Run(windowEnd + cfg.Drain); err != nil {
		return nil, err
	}
	if gen.Err() != nil {
		return nil, gen.Err()
	}
	res.GeneratedWorms, res.GeneratedMC, _ = gen.Generated()
	res.ThroughputPerHost = float64(windowBytes) / float64(cfg.Measure) / float64(len(hosts))
	if sys != nil {
		res.Adapter = sys.Stats()
	}
	res.Fabric = fab.Counters()
	if inj != nil {
		res.Fault = inj.Counters()
		res.Detection = inj.Detection()
	}
	res.Stalled = fab.Stalled(10 * des.Time(cfg.MeanWorm))
	res.Drained = k.Pending() == 0
	res.HeldChannels = len(fab.HeldChannels())
	res.EndTime = k.Now()
	res.EventsDispatched = k.Dispatched()
	res.MaxQueueDepth = k.MaxQueue()
	res.EventsPerTick = k.EventsPerTick()
	if metricsOn {
		m := fab.Metrics()
		res.Channels = m.Channels
		res.Switches = m.Switches
		res.FabricTicks = m.Ticks
	}
	return res, nil
}

// Metrics reassembles the fabric metrics snapshot (nil unless the run was
// configured with Metrics).
func (r *Results) Metrics() *trace.Metrics {
	if r.Channels == nil && r.Switches == nil {
		return nil
	}
	return &trace.Metrics{Channels: r.Channels, Switches: r.Switches, Ticks: r.FabricTicks}
}

// String summarizes a result row (one line per load point, the shape of
// the paper's figures).
func (r *Results) String() string {
	return fmt.Sprintf("%-22s load=%.3f pMC=%.2f mcLat=%8.0f uniLat=%8.0f thpt=%.4f nMC=%d nUni=%d",
		r.Config.Scheme.Name, r.Config.OfferedLoad, r.Config.MulticastProb,
		r.MCLatency.Mean(), r.UniLatency.Mean(), r.ThroughputPerHost,
		r.MCDeliveries, r.UniDeliveries)
}

// Package sim composes the full simulation stack — topology, up/down
// routing, byte-level fabric, host-adapter multicast protocol, Poisson
// traffic, and statistics — into single-call experiments, reproducing the
// setup of Section 7 of the paper.
package sim

import (
	"fmt"
	"os"
	"sort"

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

	// Route names the unicast routing scheme, looked up in the one scheme
	// registry (internal/vcroute/scheme.go): "" or "updown" (the deadlock-
	// free spanning-tree routing the paper assumes), "vcmin" (dateline
	// minimal torus routing; needs TorusGeom), "fullmesh" (direct routing
	// over pairwise-adjacent switches, VC-free), "adaptive" (Duato
	// escape-lane routing, any topology), "clos" (spine-deterministic
	// leaf-spine routing; needs ClosGeom) or "shufflenet" (forward-column
	// routing with wrap-count lanes; needs ShuffleGeom).  Run raises
	// Network.NumVCs to the scheme's lane floor and turns VCHeaders on for
	// lane-encoded tables.  Every scheme carries adapter-level multicast
	// and rebuilds its table after a remap; switch-level replication is
	// up/down only.  A new scheme is one vcroute.Scheme literal plus its
	// builder — nothing here changes.
	Route string `json:"route,omitempty"`
	// TorusGeom supplies the torus geometry the "vcmin" route needs; build
	// the Graph with topology.TorusWithGeom to obtain it.
	TorusGeom *topology.TorusGeom `json:"-"`
	// ClosGeom supplies the leaf-spine geometry the "clos" route needs; build
	// the Graph with topology.ClosWithGeom to obtain it.
	ClosGeom *topology.ClosGeom `json:"-"`
	// ShuffleGeom supplies the shufflenet geometry the "shufflenet" route
	// needs; build the Graph with topology.BidirShufflenetWithGeom.
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

	// Stalled is set when worms were left frozen in the fabric at the end
	// of the run — the observable symptom of a deadlock.
	Stalled bool
	// Drained is set when the event queue emptied before the deadline:
	// traffic generation stopped, every retry resolved, and nothing is in
	// flight.  Healthy holds only a drained run to the quiescent invariants.
	Drained bool
	// HeldChannels counts switch outputs still bound to a worm when the
	// run stopped — the wormhole equivalent of leaked locks.  Zero on any
	// drained run.
	HeldChannels int
	// EndTime is the simulation time at which the run stopped.
	EndTime des.Time
}

// net pairs the graph with the geometries the caller supplied, the form
// the scheme registry consumes.
func (cfg *Config) net() topology.Net {
	return topology.Net{Graph: cfg.Graph, Torus: cfg.TorusGeom, Clos: cfg.ClosGeom, Shuffle: cfg.ShuffleGeom}
}

// Validate checks the routing scheme, its capability combinations and the
// fabric parameters without running anything, so CLIs can reject a bad
// -route or -vcs (or an unsupported combination) with the same error a Run
// would produce.  Geometry requirements are only checked when a Graph is
// present, letting flag-level validation work on an otherwise zero Config.
func (cfg *Config) Validate() error {
	if _, err := cfg.scheme(); err != nil {
		return err
	}
	return cfg.Network.Validate()
}

// scheme looks Config.Route up in the registry and checks what the rest of
// the configuration asks of it.
func (cfg *Config) scheme() (vcroute.Scheme, error) {
	sch, err := vcroute.Lookup(cfg.Route)
	if err != nil {
		return sch, err
	}
	if cfg.Scheme.SwitchLevel && !sch.SwitchMC {
		return sch, fmt.Errorf("sim: route %q is incompatible with switch-level replication (tree-restricted routing required)", cfg.Route)
	}
	if cfg.Graph != nil {
		err = sch.Check(cfg.net())
	}
	return sch, err
}

// Stack is one run's wired layers, handed from stage to stage: Build makes
// the routed fabric; Attach, AddGroup and Faults — or Wire, which calls all
// three from the Config and starts the traffic generator — put protocol,
// groups and failures on it; the caller drives K; Collect reads the results
// out.  Run is that sequence and every other harness outside bench/ is a
// client of the same stages: the stack is composed here and nowhere else.
type Stack struct {
	K *des.Kernel
	// UD and Table are the routing currently installed: the build's, then
	// whatever the latest remap put in (see Reroute).  Table is the run's
	// one host-to-host table: the adapters' under every adapter-level
	// scheme, and the tree-only table switch-level unicast rides
	// (switchmc.New is handed it).  An adaptive fabric's escape lane
	// routes by UD.Escapes instead.
	UD     *updown.Routing
	Table  *updown.Table
	Fabric *network.Fabric
	Sys    *adapter.System    // set by Attach; nil under switch-level replication
	Inj    *fault.Injector    // set by Faults
	Gen    *traffic.Generator // set by Wire

	cfg    Config // defaults applied
	sch    vcroute.Scheme
	nvc    int // lanes per link the fabric runs (>= sch.MinLanes)
	tracer trace.Recorder
	hosts  []topology.NodeID

	// The attached system, adapter- or switch-level, as Gen and AddGroup see it.
	sink     traffic.Sink
	addGroup func(*multicast.Group) error

	res         *Results
	windowEnd   des.Time
	windowBytes int64
}

var errSwitchLevelFaults = fmt.Errorf("sim: fault injection and hello detection are not supported with switch-level replication (no recovery protocol)")

// Run executes one simulation.
func Run(cfg Config) (*Results, error) {
	st, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	if err := st.Wire(); err != nil {
		return nil, err
	}
	if err := st.K.Run(st.windowEnd + st.cfg.Drain); err != nil {
		return nil, err
	}
	if err := st.Gen.Err(); err != nil {
		return nil, err
	}
	return st.Collect(), nil
}

// Build checks the configuration and constructs the routed fabric: kernel,
// up/down labelling, the scheme's table (up/down's tree-only one under
// switch-level replication), the fabric, and — for adaptive routing — the
// fabric-side table.  Every later stage keeps this order:
// event sequence numbers and RNG draws depend on it.  A harness that
// injects its own traffic needs no measurement window; Wire does.
func Build(cfg Config) (*Stack, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("sim: nil topology")
	}
	if cfg.MeanWorm == 0 {
		cfg.MeanWorm = 400
	}
	if cfg.Drain == 0 {
		cfg.Drain = cfg.Measure / 2
	}
	if (cfg.FaultPlan != nil || cfg.Detect == fault.DetectHello) && cfg.Scheme.SwitchLevel {
		return nil, errSwitchLevelFaults
	}
	sch, err := cfg.scheme()
	if err != nil {
		return nil, err
	}
	st := &Stack{cfg: cfg, sch: sch, K: des.NewKernel(), tracer: cfg.Tracer,
		hosts: cfg.Graph.Hosts(), res: &Results{Config: cfg}, windowEnd: cfg.Warmup + cfg.Measure}
	st.UD, err = updown.New(cfg.Graph, topology.None)
	if err != nil {
		return nil, err
	}
	// Observability: an explicit Tracer/Metrics request wins; otherwise the
	// WORMTRACE environment toggle forces both on, recording into a bounded
	// ring so arbitrarily long runs stay safe.
	metricsOn := cfg.Metrics
	if forceTrace {
		if st.tracer == nil {
			st.tracer = trace.NewRing(1 << 16)
		}
		metricsOn = true
	}
	// The network config must be settled before table construction: a
	// VC-encoded table names lanes the fabric only understands with
	// VCHeaders on and enough lanes configured.
	ncfg := cfg.Network
	if ncfg.Recorder == nil {
		ncfg.Recorder = st.tracer
	}
	ncfg.Metrics = ncfg.Metrics || metricsOn
	ncfg.NumVCs = max(ncfg.NumVCs, sch.MinLanes)
	ncfg.VCHeaders = ncfg.VCHeaders || sch.VCEncoded
	st.nvc = ncfg.NumVCs
	if sch.Build == nil {
		st.Table, err = st.UD.NewTable(cfg.Scheme.SwitchLevel)
	} else if st.Table, err = sch.Build(cfg.net(), st.nvc, st.UD); err == nil {
		// One pass over the fresh table reports every broken pair at once —
		// a miswired builder or geometry is diagnosable in a single run.
		err = vcroute.ValidateTable(cfg.Graph, st.Table, sch.VCEncoded, true)
	}
	if err != nil {
		return nil, err
	}
	st.Fabric, err = network.New(st.K, cfg.Graph, st.UD, ncfg)
	if err == nil && sch.Adaptive {
		err = st.Fabric.InstallAdaptive(st.UD)
	}
	if err != nil {
		return nil, err
	}
	if metricsOn {
		hists := trace.NewLatencyHists()
		st.res.Histograms = hists
		st.K.Observe = func(des.Time) {
			hists.Queue.Add(float64(st.K.Pending()))
		}
	}
	return st, nil
}

// record books one application-level delivery: latency by the window the
// worm was created in, throughput by the window it landed in.
func (st *Stack) record(mc bool, created, now des.Time, payload int) {
	res, start := st.res, st.cfg.Warmup
	if created >= start && created < st.windowEnd {
		lat := float64(now - created)
		res.AllLatency.Add(lat)
		if mc {
			res.MCLatency.Add(lat)
			res.MCDeliveries++
		} else {
			res.UniLatency.Add(lat)
			res.UniDeliveries++
		}
		if h := res.Histograms; h != nil {
			h.All.Add(lat)
			if mc {
				h.MC.Add(lat)
			} else {
				h.Uni.Add(lat)
			}
		}
	}
	if now >= start && now < st.windowEnd {
		st.windowBytes += int64(payload)
	}
}

// groups resolves the run's multicast groups — explicit memberships in
// ascending id order, else a seeded random assignment numbered by
// position — and the per-host membership index the traffic generator
// draws from.
func (st *Stack) groups() (ids []int, sets [][]topology.NodeID, groupsOf map[topology.NodeID][]int, err error) {
	cfg := &st.cfg
	switch {
	case cfg.Groups != nil:
		groupsOf = make(map[topology.NodeID][]int)
		for id := range cfg.Groups {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			sets = append(sets, cfg.Groups[id])
			for _, h := range cfg.Groups[id] {
				groupsOf[h] = append(groupsOf[h], id)
			}
		}
	case cfg.NumGroups > 0:
		sets, groupsOf, err = traffic.AssignGroups(st.hosts, cfg.NumGroups, cfg.GroupSize, cfg.Seed)
		for gi := range sets {
			ids = append(ids, gi)
		}
	}
	return ids, sets, groupsOf, err
}

// Attach puts the multicast system on the fabric — host adapters seeded
// from Config.Seed, or switch-level replication — with its deliveries booked
// into the results.  A harness that wants its own delivery hook overwrites
// Sys.OnAppDeliver afterwards.
func (st *Stack) Attach() error {
	cfg := &st.cfg
	if cfg.Scheme.SwitchLevel {
		swsys := switchmc.New(st.K, st.Fabric, st.UD, st.Table)
		swsys.SetRecorder(st.tracer)
		swsys.OnDeliver = func(d switchmc.Delivery) {
			st.record(d.Multicast, d.Worm.Created, d.At, d.Worm.PayloadLen)
		}
		st.sink, st.addGroup = swsys, swsys.AddGroup
		return nil
	}
	acfg := cfg.Adapter
	acfg.Mode = cfg.Scheme.Mode
	acfg.CutThrough = cfg.Scheme.CutThrough
	acfg.TotalOrdering = cfg.TotalOrdering
	sys, err := adapter.NewSystem(st.K, st.Fabric, st.Table, acfg, cfg.Seed)
	if err != nil {
		return err
	}
	sys.SetRecorder(st.tracer)
	sys.OnAppDeliver = func(d adapter.AppDelivery) {
		if d.Transfer != nil {
			st.record(true, d.Transfer.Created, d.At, d.Transfer.Payload)
		} else {
			st.record(false, d.Worm.Created, d.At, d.Worm.PayloadLen)
		}
	}
	st.Sys, st.sink = sys, sys
	st.addGroup = func(grp *multicast.Group) error {
		_, err := sys.AddGroup(grp)
		return err
	}
	return nil
}

// AddGroup registers multicast group id over members with the attached system.
func (st *Stack) AddGroup(id int, members []topology.NodeID) error {
	grp, err := multicast.NewGroup(id, members)
	if err != nil {
		return err
	}
	return st.addGroup(grp)
}

// Faults schedules plan (nil: none) against the fabric and hooks the recovery
// pipeline to the attached adapters.  A nil icfg.OnRemap is Reroute; a nil
// icfg.Recorder is the stack's tracer.
func (st *Stack) Faults(plan *fault.Plan, icfg fault.InjectorConfig) error {
	if st.Sys == nil {
		return errSwitchLevelFaults
	}
	if icfg.OnRemap == nil {
		icfg.OnRemap = st.Reroute
	}
	if icfg.Recorder == nil {
		icfg.Recorder = st.tracer
	}
	if plan == nil {
		plan = &fault.Plan{}
	}
	var err error
	st.Inj, err = fault.NewInjector(st.K, st.Fabric, plan, icfg)
	return err
}

// Reroute is the remap callback: it re-derives the scheme's table from the
// recovery pipeline's fresh labelling (whose failure set is the detector's
// view; up/down keeps the pipeline's own table), reroutes the adapters onto
// it and keeps UD/Table current.  A table failing vcroute.ValidateTable or
// the deadlock proof, like a rebuild error, halts the run: K.Run returns
// it.  An adaptive fabric routes by the labelling's escape table, not by
// its all-marker table, so that table is what an adaptive remap proves.
func (st *Stack) Reroute(ud *updown.Routing, tbl *updown.Table) {
	var err error
	if st.sch.Adaptive {
		err = ud.Escapes().Prove(st.cfg.Graph, nil)
		if err == nil {
			err = st.Fabric.InstallAdaptive(ud)
		}
	}
	if err == nil && st.sch.Build != nil {
		tbl, err = st.sch.Build(st.cfg.net(), st.nvc, ud)
	}
	if err == nil {
		err = vcroute.ValidateTable(st.cfg.Graph, tbl, st.sch.VCEncoded, false)
	}
	if err == nil && !st.sch.Adaptive {
		err = tbl.Prove(st.cfg.Graph, vcroute.Decoder(st.sch.VCEncoded))
	}
	if err != nil {
		st.K.Halt(fmt.Errorf("sim: route %q rebuild after remap: %w", st.sch.Name, err))
		return
	}
	st.UD, st.Table = ud, tbl
	st.Sys.Reroute(tbl, ud.Reachable)
}

// Wire attaches everything the Config describes, in the order the layers
// draw sequence numbers: the adapter (or switch-level) multicast system, the
// groups, the fault injector, and the started traffic generator.
func (st *Stack) Wire() error {
	cfg := &st.cfg
	if cfg.Measure == 0 {
		return fmt.Errorf("sim: zero measure window")
	}
	ids, sets, groupsOf, err := st.groups()
	if err != nil {
		return err
	}
	if err := st.Attach(); err != nil {
		return err
	}
	for i, id := range ids {
		if err := st.AddGroup(id, sets[i]); err != nil {
			return err
		}
	}
	if cfg.FaultPlan != nil || cfg.Detect == fault.DetectHello {
		icfg := fault.InjectorConfig{RemapDelay: cfg.RemapDelay, Mode: cfg.Detect}
		if cfg.Detect == fault.DetectHello {
			if cfg.Liveness != nil {
				icfg.Hello = *cfg.Liveness
			}
			// Hellos stop with traffic generation: the drain phase then
			// empties the fabric so quiescence invariants stay checkable.
			icfg.HelloUntil = st.windowEnd
		}
		if err := st.Faults(cfg.FaultPlan, icfg); err != nil {
			return err
		}
	}
	st.Gen, err = traffic.New(st.K, traffic.Config{
		OfferedLoad:   cfg.OfferedLoad,
		MeanWorm:      cfg.MeanWorm,
		MulticastProb: cfg.MulticastProb,
		Until:         st.windowEnd,
	}, st.hosts, groupsOf, st.sink, cfg.Seed)
	if err != nil {
		return err
	}
	st.Gen.Start()
	return nil
}

// Collect reads a wired run out of the layers once the kernel has stopped.
func (st *Stack) Collect() *Results {
	res, k, fab := st.res, st.K, st.Fabric
	if st.Gen != nil { // nil when the caller drives its own traffic
		res.GeneratedWorms, res.GeneratedMC, _ = st.Gen.Generated()
	}
	res.ThroughputPerHost = float64(st.windowBytes) / float64(st.cfg.Measure) / float64(len(st.hosts))
	if st.Sys != nil {
		res.Adapter = st.Sys.Stats()
	}
	res.Fabric = fab.Counters()
	if st.Inj != nil {
		res.Fault = st.Inj.Counters()
		res.Detection = st.Inj.Detection()
	}
	res.Stalled = fab.Stalled(10 * des.Time(st.cfg.MeanWorm))
	res.Drained = k.Pending() == 0
	res.HeldChannels = len(fab.HeldChannels())
	res.EndTime = k.Now()
	res.EventsDispatched = k.Dispatched()
	res.MaxQueueDepth = k.MaxQueue()
	res.EventsPerTick = k.EventsPerTick()
	if res.Histograms != nil {
		m := fab.Metrics()
		res.Channels = m.Channels
		res.Switches = m.Switches
		res.FabricTicks = m.Ticks
	}
	return res
}

// Healthy is the one verdict on whether a run's numbers may be used: not
// stalled, and, once drained, quiescent — no switch output held, and every
// injected worm delivered or dropped, a law skipped where switches replicated
// multicasts (a delivery per leaf; the per-copy law is an application
// ledger's).  A run its deadline stopped while still moving is healthy.
func (r *Results) Healthy() error {
	switch f := r.Fabric; {
	case r.Stalled:
		return fmt.Errorf("run stalled at t=%d: worms frozen in the fabric (%d injected, %d delivered)",
			r.EndTime, f.Injected, f.Delivered)
	case r.Drained && !(r.Config.Scheme.SwitchLevel && r.GeneratedMC > 0) && f.Injected != f.Delivered+f.WormsDropped:
		return fmt.Errorf("drained run broke worm conservation: injected %d != delivered %d + dropped %d",
			f.Injected, f.Delivered, f.WormsDropped)
	case r.Drained && r.HeldChannels != 0:
		return fmt.Errorf("drained run left %d switch outputs held", r.HeldChannels)
	}
	return nil
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

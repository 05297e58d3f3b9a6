package faulttest

import (
	"context"
	"fmt"
	"io"

	"wormlan/internal/adapter"
	"wormlan/internal/des"
	"wormlan/internal/fault"
	"wormlan/internal/liveness"
	"wormlan/internal/network"
	"wormlan/internal/sweep"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
	"wormlan/internal/traffic"
	"wormlan/internal/vcroute"
)

// StormSpec declares one chaos scenario: a topology, a random fault
// schedule, and the traffic offered while the storm runs.  A spec is
// plain data (JSON-marshalable), so a matrix of specs forms a sweep grid
// and storms fan out across workers like any other figure.
type StormSpec struct {
	Name string `json:"name"`
	// Topo names the fabric (topology.Named): "torus8x8", "shufflenet24",
	// "fullmesh8x4", ...
	Topo string `json:"topo"`
	// Faults parameterizes fault.RandomPlan.  A zero Seed is replaced by
	// the sweep's derived per-point seed.
	Faults fault.Options `json:"faults"`
	// Traffic offered during the storm (defaults: load 0.02, mean worm
	// 300 bytes, generator seed 5; 20% multicast under up/down, none under
	// the other schemes unless asked).
	OfferedLoad   float64 `json:"load,omitempty"`
	MulticastProb float64 `json:"mcProb,omitempty"`
	MeanWorm      int     `json:"meanWorm,omitempty"`
	TrafficSeed   uint64  `json:"trafficSeed,omitempty"`

	// Detect selects the detection mode: "" or "oracle" (default), or
	// "hello" to run the storm with the in-band liveness protocol in the
	// recovery loop.  All fields below are omitempty so pre-existing
	// oracle specs keep their serialized form — and therefore their
	// sweep-derived seeds — bit-identical.
	Detect string `json:"detect,omitempty"`
	// HelloInterval / DetectMult override the liveness defaults in hello
	// mode (zero keeps the package defaults).
	HelloInterval des.Time `json:"helloInterval,omitempty"`
	DetectMult    int      `json:"detectMult,omitempty"`

	// Route names the routing scheme (vcroute.Lookup; "" is up/down).  All
	// schemes take the full fault repertoire — topology changes rebuild
	// the scheme's table over the survivors (pruning for the rigid
	// schemes, genuine rerouting for the others).
	// Omitempty, like the detection knobs: the default matrix's specs —
	// and therefore their derived storm seeds — serialize unchanged.
	Route  string `json:"route,omitempty"`
	NumVCs int    `json:"nvc,omitempty"`
	Arb    string `json:"arb,omitempty"` // "" = port scan, "islip"
}

// StormAdapterConfig keeps retries finite and timeouts short so give-ups
// resolve well before the drain deadline.
func StormAdapterConfig() adapter.Config {
	return adapter.Config{
		Mode:           adapter.ModeCircuit,
		CutThrough:     true,
		MaxRetries:     3,
		AckTimeoutBase: 16384,
		NackBackoff:    2048,
	}
}

// RunStorm executes one chaos scenario to quiescence and verifies the
// system-wide invariants: the schedule actually hit the fabric, traffic
// survived, worms were conserved, no channels leaked, and the recovered
// routes verify.  It returns the run's comparable Outcome; two calls with
// the same spec return identical outcomes (the determinism the storm
// matrix test pins across worker counts).
func RunStorm(spec StormSpec) (Outcome, error) {
	var zero Outcome
	sch, err := vcroute.Lookup(spec.Route)
	if err != nil {
		return zero, err
	}
	net, err := topology.Named(spec.Topo, 0)
	if err != nil {
		return zero, err
	}
	if spec.OfferedLoad == 0 {
		spec.OfferedLoad = 0.02
	}
	if spec.MulticastProb == 0 && sch.Build == nil {
		// Up/down storms carry the paper's multicast mix by default.  The
		// other schemes' published specs predate multicast over their
		// tables; they stay unicast unless a spec asks, which keeps their
		// outcomes.
		spec.MulticastProb = 0.2
	}
	if spec.MeanWorm == 0 {
		spec.MeanWorm = 300
	}
	if spec.TrafficSeed == 0 {
		spec.TrafficSeed = 5
	}
	arb, err := network.ParseArb(spec.Arb)
	if err != nil {
		return zero, err
	}
	// ArbIters is read only under iSLIP.
	ncfg := network.Config{NumVCs: spec.NumVCs, Arb: arb, ArbIters: 2}
	icfg, err := stormInjectorConfig(spec)
	if err != nil {
		return zero, err
	}
	plan := fault.RandomPlan(net.Graph, spec.Faults)
	b, err := NewBenchRouted(net, sch, StormAdapterConfig(), plan, icfg, ncfg)
	if err != nil {
		return zero, err
	}

	hosts := net.Graph.Hosts()
	var groupsOf map[topology.NodeID][]int
	if spec.MulticastProb > 0 {
		groupsOf = map[topology.NodeID][]int{}
		for id, members := range [][]topology.NodeID{hosts[:len(hosts)/2], hosts[len(hosts)/3:]} {
			if err := b.AddGroup(id, members); err != nil {
				return zero, err
			}
			for _, h := range members {
				groupsOf[h] = append(groupsOf[h], id)
			}
		}
	}
	gen, err := traffic.New(b.K, traffic.Config{
		OfferedLoad:   spec.OfferedLoad,
		MeanWorm:      spec.MeanWorm,
		MulticastProb: spec.MulticastProb,
		Until:         des.Time(spec.Faults.Window) * 2,
	}, hosts, groupsOf, b.Sys, spec.TrafficSeed)
	if err != nil {
		return zero, err
	}
	gen.Start()

	if err := b.RunErr(des.Time(spec.Faults.Window) * 40); err != nil {
		return zero, err
	}
	if err := stormHit(spec, icfg.Mode, b.Inj); err != nil {
		return zero, err
	}
	worms, _, _ := gen.Generated()
	if worms == 0 {
		return zero, fmt.Errorf("no traffic generated")
	}
	if b.UniDelivered == 0 {
		return zero, fmt.Errorf("no unicast deliveries survived the storm")
	}
	if err := b.RoutesErr(); err != nil {
		return zero, err
	}
	return b.Outcome(), nil
}

// stormInjectorConfig selects the spec's detection mode and, under hello
// detection, its liveness parameters.
func stormInjectorConfig(spec StormSpec) (fault.InjectorConfig, error) {
	mode, err := fault.ParseDetectMode(spec.Detect)
	icfg := fault.InjectorConfig{Mode: mode}
	if mode == fault.DetectHello {
		icfg.Hello = liveness.Config{
			Interval:   spec.HelloInterval,
			DetectMult: spec.DetectMult,
			Seed:       spec.Faults.Seed,
		}
		// Hellos outlive the fault window and the traffic horizon so late
		// failures are still detected, then stop well before the drain
		// deadline so quiescence invariants stay checkable.
		icfg.HelloUntil = des.Time(spec.Faults.Window) * 4
	}
	return icfg, err
}

// stormHit checks that the schedule actually hit the fabric mid-run: every
// kind of fault the spec asked for happened at least once, topology
// changes completed a remap, and under hello detection it was detection,
// not the oracle, that drove those remaps.
func stormHit(spec StormSpec, mode fault.DetectMode, inj *fault.Injector) error {
	ic, f := inj.Counters(), spec.Faults
	if f.LinkDowns > 0 && ic.LinkDowns < 1 {
		return fmt.Errorf("chaos plan killed no links: %+v", ic)
	}
	if f.SwitchDowns > 0 && ic.SwitchDowns < 1 {
		return fmt.Errorf("chaos plan killed no switches: %+v", ic)
	}
	if f.LinkDowns+f.SwitchDowns > 0 && ic.Remaps < 1 {
		return fmt.Errorf("no remap completed: %+v", ic)
	}
	if f.Corruptions > 0 && ic.Corruptions < 1 {
		return fmt.Errorf("chaos plan corrupted nothing: %+v", ic)
	}
	if f.Stalls > 0 && ic.Stalls < 1 {
		return fmt.Errorf("chaos plan stalled no hosts: %+v", ic)
	}
	if mode == fault.DetectHello && f.LinkDowns+f.SwitchDowns > 0 {
		d := inj.Detection()
		if d.Liveness.PeerDowns < 1 {
			return fmt.Errorf("hello detection issued no down verdicts: %+v", d.Liveness)
		}
		if d.Remaps < 1 {
			return fmt.Errorf("no detection-driven remap completed: %+v", d)
		}
		if d.DetectToReroute.Count < 1 {
			return fmt.Errorf("no detection-to-reroute latency recorded: %+v", d)
		}
	}
	return nil
}

// StormGrid expresses a storm matrix as a sweep grid.  Specs with a zero
// fault seed get the derived per-point seed, so the matrix is collision-
// free by construction and stable under reordering.
func StormGrid(specs []StormSpec, baseSeed uint64) sweep.Grid[Outcome] {
	g := sweep.Grid[Outcome]{Name: "storm-matrix", BaseSeed: baseSeed}
	for _, spec := range specs {
		spec := spec
		g.Add(spec, func(_ context.Context, seed uint64) (Outcome, error) {
			s := spec
			if s.Faults.Seed == 0 {
				s.Faults.Seed = seed
			}
			return RunStorm(s)
		})
	}
	return g
}

// PrintStorms renders a storm matrix's outcomes, one summary row per storm.
// A storm run under hello detection gets its liveness statistics on a
// second row, and metrics adds the matrix-wide detection-latency
// histograms (merged across those storms).
func PrintStorms(w io.Writer, specs []StormSpec, outcomes []Outcome, metrics bool) {
	var d2r, f2d trace.Histogram
	hello := false
	for i, o := range outcomes {
		fmt.Fprintf(w, "%-24s injected=%d delivered=%d dropped=%d remaps=%d uni=%d mc=%d\n",
			specs[i].Name, o.Fabric.Injected, o.Fabric.Delivered, o.Fabric.WormsDropped,
			o.Inject.Remaps, o.Uni, o.McSum)
		// RunStorm has already rejected an unknown mode.
		if mode, _ := fault.ParseDetectMode(specs[i].Detect); mode == fault.DetectHello {
			hello = true
			l := o.Detection.Liveness
			fmt.Fprintf(w, "%-24s downs=%d ups=%d falsePos=%d flaps=%d suppressed=%d detectionRemaps=%d\n",
				"", l.PeerDowns, l.PeerUps, l.FalsePositives, l.Flaps, l.FlapsSuppressed, o.Detection.Remaps)
			d2r.Merge(&o.Detection.DetectToReroute)
			f2d.Merge(&o.Detection.FaultToDetect)
		}
	}
	if hello && metrics {
		d2r.Name, f2d.Name = "detect-to-reroute", "fault-to-detect"
		fmt.Fprintf(w, "%s\n%s\n", &d2r, &f2d)
	}
}

// DetectionStormMatrix is the published detection-in-the-loop storm grid:
// the default matrix re-run with the hello/liveness protocol replacing the
// oracle, so every recovery is driven by in-band detection.  Verdict
// counts, false positives, flaps, and detection-to-reroute latency land in
// each Outcome's Detection field.
func DetectionStormMatrix() []StormSpec {
	specs := DefaultStormMatrix()
	for i := range specs {
		specs[i].Name += "-hello"
		specs[i].Detect = "hello"
	}
	return specs
}

// VCStormMatrix is the alternative-routing storm grid: the dateline torus
// (both arbiters) and the direct-routed full mesh under corruption/stall
// chaos — their specs predate topology-change recovery and serialize
// unchanged, keeping derived seeds stable — plus link-kill storms against
// vcmin (prune recovery) and adaptive routing (reroute recovery, with
// multicast riding the VC fabric).
func VCStormMatrix() []StormSpec {
	return []StormSpec{
		{Name: "vcmin-storm", Topo: "torus8x8", Route: "vcmin", NumVCs: 2,
			Faults: fault.Options{Seed: 17, Corruptions: 4, Stalls: 2, Window: 30_000}},
		{Name: "vcmin-islip-storm", Topo: "torus8x8", Route: "vcmin", NumVCs: 4, Arb: "islip",
			Faults: fault.Options{Seed: 29, Corruptions: 3, Stalls: 2, Window: 30_000}},
		{Name: "fullmesh-storm", Topo: "fullmesh8x4", Route: "fullmesh",
			Faults: fault.Options{Seed: 31, Corruptions: 4, Stalls: 2, Window: 30_000}},
		{Name: "vcmin-linkkill", Topo: "torus8x8", Route: "vcmin", NumVCs: 2,
			Faults: fault.Options{Seed: 41, LinkDowns: 2, Corruptions: 2, Stalls: 1, Window: 30_000}},
		{Name: "adaptive-storm", Topo: "torus8x8", Route: "adaptive", MulticastProb: 0.2,
			Faults: fault.Options{Seed: 43, LinkDowns: 2, Corruptions: 3, Stalls: 2, Window: 30_000}},
	}
}

// DefaultStormMatrix is the storm matrix exercised by tests and
// `mcbench`-adjacent tooling: both reference fabrics under storms of
// varying severity, with and without healing.
func DefaultStormMatrix() []StormSpec {
	return []StormSpec{
		{Name: "torus-storm", Topo: "torus8x8",
			Faults: fault.Options{Seed: 42, LinkDowns: 3, SwitchDowns: 1, Corruptions: 4, Stalls: 2, Window: 30_000}},
		{Name: "torus-healing", Topo: "torus8x8",
			Faults: fault.Options{Seed: 1234, LinkDowns: 3, SwitchDowns: 1, Corruptions: 2, Stalls: 1, Window: 30_000, Heal: 20_000}},
		{Name: "shufflenet-storm", Topo: "shufflenet24",
			Faults: fault.Options{Seed: 7, LinkDowns: 2, SwitchDowns: 1, Corruptions: 4, Stalls: 2, Window: 30_000}},
		{Name: "shufflenet-light", Topo: "shufflenet24",
			Faults: fault.Options{Seed: 11, LinkDowns: 1, SwitchDowns: 1, Corruptions: 1, Stalls: 1, Window: 30_000}},
	}
}

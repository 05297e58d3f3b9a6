package sim

import (
	"reflect"
	"strings"
	"testing"

	"wormlan/internal/fault"
	"wormlan/internal/network"
	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/traffic"
	"wormlan/internal/updown"
	"wormlan/internal/vcroute"
)

// vcminConfig is a unicast-only run on a 4x4 torus under VC-partitioned
// minimal routing.
func vcminConfig(load float64) Config {
	g, geo := topology.TorusWithGeom(4, 4, 1, 1)
	return Config{
		Graph:       g,
		TorusGeom:   geo,
		Route:       "vcmin",
		Scheme:      HamiltonianSF, // mode is irrelevant for pure unicast
		OfferedLoad: load,
		Warmup:      5_000,
		Measure:     60_000,
		Drain:       60_000,
		Seed:        23,
	}
}

// stripResults zeroes the fields that legitimately differ between two
// runs being compared for identical fabric behaviour: the Config (carries
// pointers and the knob under test) and the kernel tick ratio (fast
// forward reduces tick passes by construction).
func stripResults(r *Results) *Results {
	c := *r
	c.Config = Config{}
	c.EventsPerTick = 0
	return &c
}

// assertHealthy asserts that a run drained, passed the run verdict and
// delivered unicast traffic.
func assertHealthy(t *testing.T, r *Results, name string) {
	t.Helper()
	if err := r.Healthy(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !r.Drained {
		t.Fatalf("%s: run did not drain by t=%d", name, r.EndTime)
	}
	if r.UniDeliveries == 0 {
		t.Fatalf("%s: no deliveries", name)
	}
}

// TestVCTransparency: with VCHeaders off, all traffic rides lane 0, and a
// fabric configured with extra lanes must produce byte-identical results
// to the single-lane fabric — virtual channels are invisible until a
// routing scheme assigns them.
func TestVCTransparency(t *testing.T) {
	base := smallConfig(TreeCT, 0.08)
	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, nvc := range []int{2, 4} {
		cfg := smallConfig(TreeCT, 0.08)
		cfg.Network.NumVCs = nvc
		rn, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripResults(r1), stripResults(rn)) {
			t.Fatalf("NumVCs=%d changed results with no VC routing:\n1: %v\n%d: %v", nvc, r1, nvc, rn)
		}
	}
}

// stripLanes rebuilds a routing table with the VC bits cleared from every
// hop byte — minimal torus routing with NO dateline discipline, the
// textbook deadlocking configuration.
func stripLanes(t *testing.T, tab *updown.Table) *updown.Table {
	t.Helper()
	b := updown.NewTableBuilder(tab.Hosts, tab.Hosts)
	for _, src := range tab.Hosts {
		for _, dst := range tab.Hosts {
			for _, pb := range tab.Lookup(src, dst).Ports {
				p, _ := route.DecodeVCPort(byte(pb))
				b.Row = append(b.Row, topology.PortID(p))
			}
			b.EndRoute()
		}
	}
	return b.Table()
}

// TestTorusMinimalDeadlockPair is the control experiment for the dateline
// scheme: identical traffic over identical minimal routes deadlocks on a
// single-lane torus (cyclic ring dependencies) and drains cleanly under
// vcmin.  The deadlocking half is wired by hand: no Config names a
// lane-stripped table, and Stack.Reroute refuses to install one
// (TestRerouteRefusesCyclicTable).
func TestTorusMinimalDeadlockPair(t *testing.T) {
	// The healthy half: vcmin via the public API.  Moderate load — the
	// claim under test is freedom from deadlock, not infinite capacity;
	// at saturating loads the drain window closes on congestion, which
	// is a different (and expected) phenomenon.
	good, err := Run(vcminConfig(0.55))
	if err != nil {
		t.Fatal(err)
	}
	assertHealthy(t, good, "vcmin")

	// The control: same routes, lanes stripped, one VC, swapped in for the
	// up/down table before Attach hands it to the adapters.
	g, geo := topology.TorusWithGeom(4, 4, 1, 1)
	st, err := Build(Config{Graph: g, Scheme: HamiltonianSF, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	vtab, err := vcroute.TorusMinimal(g, geo, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.Table = stripLanes(t, vtab)
	if err := st.Attach(); err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.New(st.K, traffic.Config{
		OfferedLoad: 0.85, MeanWorm: 400, Until: 65_000,
	}, g.Hosts(), nil, st.Sys, 23)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	if err := st.K.Run(130_000); err != nil {
		t.Fatal(err)
	}
	if st.Collect().Healthy() == nil {
		c := st.Fabric.Counters()
		t.Fatalf("no-dateline minimal routing passed the run verdict (injected=%d delivered=%d): control is not controlling", c.Injected, c.Delivered)
	}
}

// TestFullMeshRun: direct routing on a full mesh drains without virtual
// channels — inter-switch channels only ever wait on host sinks.
func TestFullMeshRun(t *testing.T) {
	r, err := Run(Config{
		Graph:       topology.FullMesh(6, 2, 1),
		Route:       "fullmesh",
		Scheme:      HamiltonianSF,
		OfferedLoad: 0.5,
		Warmup:      5_000,
		Measure:     60_000,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertHealthy(t, r, "fullmesh")
}

// TestFastForwardExactnessVCMin: on a multi-VC run whose routes switch
// lanes at datelines, the fast-forward path must produce byte-identical
// results to tick-by-tick execution.  (Engagement is invisible here by
// design — skipped ticks are accounted exactly as if run — so the
// network-level suite asserts engagement via Fabric.SkipStats instead.)
func TestFastForwardExactnessVCMin(t *testing.T) {
	ff, err := Run(vcminConfig(0.25))
	if err != nil {
		t.Fatal(err)
	}
	cfg := vcminConfig(0.25)
	cfg.Network.DisableFastForward = true
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripResults(ff), stripResults(slow)) {
		t.Fatalf("fast-forward diverged from tick-by-tick:\nff:   %v\nslow: %v", ff, slow)
	}
}

// TestISLIPDeterministicAndSound: iSLIP arbitration on a multi-lane torus
// is bit-identical across reruns and preserves the quiescence invariants.
func TestISLIPDeterministicAndSound(t *testing.T) {
	mk := func() Config {
		cfg := vcminConfig(0.6)
		cfg.Network.Arb = network.ArbISLIP
		cfg.Network.ArbIters = 2
		return cfg
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	assertHealthy(t, a, "islip")
	if !reflect.DeepEqual(stripResults(a), stripResults(b)) {
		t.Fatalf("iSLIP rerun diverged:\na: %v\nb: %v", a, b)
	}
}

// TestRouteValidation: the config combinations the alternative schemes
// cannot honour are rejected up front, with telling errors, and the ones
// the capability registry now grants (multicast, topology faults, hello)
// are accepted.
func TestRouteValidation(t *testing.T) {
	mk := vcminConfig
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"unknown", func(c *Config) { c.Route = "left-hand" }, "unknown route"},
		{"switch-level", func(c *Config) { c.Scheme = SwitchFabric }, "switch-level"},
		{"no-geom", func(c *Config) { c.TorusGeom = nil }, "geometry"},
		{"clos-no-geom", func(c *Config) { c.Route = "clos"; c.TorusGeom = nil }, "leaf-spine geometry"},
		{"shufflenet-no-geom", func(c *Config) { c.Route = "shufflenet"; c.TorusGeom = nil }, "shufflenet geometry"},
		{"too-many-lanes", func(c *Config) { c.Network.NumVCs = 9 }, "NumVCs 9 outside [1,4]"},
	}
	for _, tc := range cases {
		cfg := mk(0.2)
		tc.mut(&cfg)
		_, err := Run(cfg)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The unknown-route error spells out the full legal set, sorted, so
	// CLI users see their options; Validate on a bare Config (no Graph)
	// produces the same error a Run would.
	bare := Config{Route: "left-hand"}
	err := bare.Validate()
	if err == nil {
		t.Fatal("bare Validate accepted an unknown route")
	}
	const wantSet = "adaptive, clos, fullmesh, shufflenet, updown, vcmin"
	if !strings.Contains(err.Error(), wantSet) {
		t.Fatalf("unknown-route error %q does not list %q", err, wantSet)
	}
	// Corruption and host stalls change no routes: allowed.
	cfg := mk(0.2)
	cfg.FaultPlan = (&fault.Plan{}).Corrupt(20_000, 5).Stall(30_000, cfg.Graph.Hosts()[1], 2_000)
	if _, err := Run(cfg); err != nil {
		t.Fatalf("corruption+stall plan rejected under vcmin: %v", err)
	}
	// Formerly rejected, now capability-granted: multicast traffic on a
	// VC-headered scheme and topology-changing fault plans on vcmin.
	cfg = mk(0.15)
	cfg.MulticastProb = 0.2
	cfg.NumGroups = 2
	cfg.GroupSize = 3
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("multicast over vcmin rejected: %v", err)
	}
	assertHealthy(t, r, "vcmin-mc")
	if r.MCDeliveries == 0 {
		t.Fatal("vcmin multicast run produced no multicast deliveries")
	}
	cfg = mk(0.15)
	cfg.FaultPlan = (&fault.Plan{}).LinkDown(10_000, cfg.Graph.Hosts()[0], 0)
	if _, err := Run(cfg); err != nil {
		t.Fatalf("link-kill plan rejected under vcmin: %v", err)
	}
}

// TestRerouteRefusesCyclicTable: a remap handed the lane-stripped minimal
// torus table fails its deadlock proof, so the run halts on the old routes
// and K.Run returns the error naming the ring cycle.
func TestRerouteRefusesCyclicTable(t *testing.T) {
	g, geo := topology.TorusWithGeom(4, 4, 1, 1)
	st, err := Build(Config{Graph: g, Scheme: HamiltonianSF, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Attach(); err != nil {
		t.Fatal(err)
	}
	vtab, err := vcroute.TorusMinimal(g, geo, 2)
	if err != nil {
		t.Fatal(err)
	}
	old := st.Table
	st.K.After(1_000, func() { st.Reroute(st.UD, stripLanes(t, vtab)) })
	err = st.K.Run(0)
	if err == nil || !strings.Contains(err.Error(), "channel dependency cycle") {
		t.Fatalf("K.Run = %v, want the proof's cycle", err)
	}
	if st.Table != old {
		t.Fatal("the refused table was installed")
	}
}

package sim

import (
	"strings"
	"testing"

	"wormlan/internal/fault"
	"wormlan/internal/network"
	"wormlan/internal/topology"
)

func smallConfig(scheme Scheme, load float64) Config {
	return Config{
		Graph:         topology.Torus(3, 3, 1, 1),
		Scheme:        scheme,
		OfferedLoad:   load,
		MulticastProb: 0.1,
		NumGroups:     2,
		GroupSize:     4,
		Warmup:        20_000,
		Measure:       120_000,
		Seed:          11,
	}
}

// runHealthy runs cfg and fails t unless the run completes and
// Results.Healthy accepts it.
func runHealthy(t *testing.T, cfg Config) *Results {
	t.Helper()
	r, err := Run(cfg)
	if err == nil {
		err = r.Healthy()
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestHealthyVerdict pins the run verdict over hand-built results: one row
// per rule, plus the cases the rule must let through.
func TestHealthyVerdict(t *testing.T) {
	fab := func(inj, del, drop int64) network.Counters {
		return network.Counters{Injected: inj, Delivered: del, WormsDropped: drop}
	}
	for _, tc := range []struct {
		name    string
		r       Results
		healthy bool
	}{
		{"drained and quiescent", Results{Drained: true, Fabric: fab(10, 9, 1)}, true},
		{"stalled", Results{Stalled: true, Fabric: fab(10, 4, 0), HeldChannels: 3}, false},
		{"worm law short by one", Results{Drained: true, Fabric: fab(10, 8, 1)}, false},
		{"worm law over by one", Results{Drained: true, Fabric: fab(10, 10, 1)}, false},
		{"drained with held channels", Results{Drained: true, Fabric: fab(10, 10, 0), HeldChannels: 1}, false},
		{"deadline stop with held channels", Results{Fabric: fab(10, 6, 0), HeldChannels: 4}, true},
		// Switch-level replication books one delivery per multicast leaf:
		// the published ablation row's own counters.
		{"switch-level leaves", Results{Config: Config{Scheme: SwitchFabric}, GeneratedMC: 1, Drained: true, Fabric: fab(756, 1276, 0)}, true},
		{"switch-level unicast slip", Results{Config: Config{Scheme: SwitchFabric}, Drained: true, Fabric: fab(10, 8, 1)}, false},
	} {
		if err := tc.r.Healthy(); (err == nil) != tc.healthy {
			t.Errorf("%s: Healthy() = %v, want healthy=%v", tc.name, err, tc.healthy)
		}
	}
}

func TestRunProducesSamples(t *testing.T) {
	r := runHealthy(t, smallConfig(HamiltonianSF, 0.06))
	if r.MCDeliveries == 0 || r.UniDeliveries == 0 {
		t.Fatalf("no samples: %+v", r)
	}
	if r.MCLatency.Mean() <= 0 || r.UniLatency.Mean() <= 0 {
		t.Fatalf("latencies: mc=%v uni=%v", r.MCLatency.Mean(), r.UniLatency.Mean())
	}
	if r.ThroughputPerHost <= 0 {
		t.Fatal("no throughput")
	}
	if r.Adapter.GiveUps != 0 {
		t.Fatalf("protocol gave up: %+v", r.Adapter)
	}
	if r.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallConfig(TreeSF, 0.06))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(TreeSF, 0.06))
	if err != nil {
		t.Fatal(err)
	}
	if a.MCLatency.Mean() != b.MCLatency.Mean() || a.MCDeliveries != b.MCDeliveries ||
		a.Fabric != b.Fabric {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	lo, err := Run(smallConfig(HamiltonianSF, 0.03))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(smallConfig(HamiltonianSF, 0.16))
	if err != nil {
		t.Fatal(err)
	}
	if hi.MCLatency.Mean() <= lo.MCLatency.Mean() {
		t.Fatalf("multicast latency did not grow with load: %.0f -> %.0f",
			lo.MCLatency.Mean(), hi.MCLatency.Mean())
	}
}

func TestSwitchFabricScheme(t *testing.T) {
	r := runHealthy(t, smallConfig(SwitchFabric, 0.04))
	if r.MCDeliveries == 0 || r.UniDeliveries == 0 {
		t.Fatalf("no deliveries: %v", r)
	}
	// Crossbar replication skips per-hop reassembly entirely: multicast
	// latency should beat the store-and-forward adapter tree.
	tree, err := Run(smallConfig(TreeSF, 0.04))
	if err != nil {
		t.Fatal(err)
	}
	if r.MCLatency.Mean() >= tree.MCLatency.Mean() {
		t.Fatalf("switch-level mc latency %.0f not below adapter tree %.0f",
			r.MCLatency.Mean(), tree.MCLatency.Mean())
	}
}

// TestSwitchFabricNoStall: on torus8x8 at load 0.02, trees that forked a
// branch up the spanning tree deadlocked under IDLE fill within the first
// 35 000 byte-times.  Root-first trees fork only on the way down.
func TestSwitchFabricNoStall(t *testing.T) {
	cfg := smallConfig(SwitchFabric, 0.02)
	cfg.Graph = topology.Torus(8, 8, 1, 1)
	cfg.NumGroups, cfg.GroupSize = 10, 6
	cfg.Seed, cfg.Warmup, cfg.Measure = 2, 5_000, 30_000
	runHealthy(t, cfg)
}

func TestAllSchemesComplete(t *testing.T) {
	for _, s := range []Scheme{HamiltonianSF, HamiltonianCT, TreeSF, TreeCT, TreeFlood, SwitchFabric} {
		t.Run(s.Name, func(t *testing.T) {
			if r := runHealthy(t, smallConfig(s, 0.05)); r.MCDeliveries == 0 {
				t.Fatal("no multicast deliveries")
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	cfg := smallConfig(TreeSF, 0.05)
	cfg.Measure = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero window accepted")
	}
	cfg = smallConfig(TreeSF, 0.05)
	cfg.GroupSize = 100
	if _, err := Run(cfg); err == nil {
		t.Fatal("oversized groups accepted")
	}
}

func TestExplicitGroupsFromConfig(t *testing.T) {
	// The paper's simulator takes groups from the same configuration file
	// as the topology; sim.Config.Groups is that path.
	g, groups, err := topology.ParseConfig(strings.NewReader(`
switch s0
switch s1
host h0 s0
host h1 s0
host h2 s1
host h3 s1
link s0 s1
group 7 h0 h2 h3
`))
	if err != nil {
		t.Fatal(err)
	}
	r := runHealthy(t, Config{
		Graph:         g,
		Scheme:        TreeFlood,
		OfferedLoad:   0.05,
		MulticastProb: 0.4,
		Groups:        groups,
		Warmup:        10_000,
		Measure:       80_000,
		Seed:          3,
	})
	if r.MCDeliveries == 0 {
		t.Fatal("explicit group carried no multicast")
	}
}

func TestTotalOrderingRun(t *testing.T) {
	cfg := smallConfig(HamiltonianSF, 0.05)
	cfg.TotalOrdering = true
	if r := runHealthy(t, cfg); r.MCDeliveries == 0 {
		t.Fatalf("ordered run: %v", r)
	}
}

func TestRunWithFaultPlan(t *testing.T) {
	cfg := smallConfig(TreeSF, 0.06)
	cfg.FaultPlan = fault.RandomPlan(cfg.Graph, fault.Options{
		Seed: 3, LinkDowns: 1, SwitchDowns: 1, Window: 60_000,
	})
	r := runHealthy(t, cfg)
	if r.Fault.LinkDowns != 1 || r.Fault.SwitchDowns != 1 {
		t.Fatalf("faults not applied: %+v", r.Fault)
	}
	if r.Fault.Remaps == 0 {
		t.Fatalf("no remap: %+v", r.Fault)
	}
}

func TestFaultPlanRejectedForSwitchLevel(t *testing.T) {
	cfg := smallConfig(SwitchFabric, 0.06)
	cfg.FaultPlan = &fault.Plan{}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "switch-level") {
		t.Fatalf("switch-level + faults accepted: %v", err)
	}
}

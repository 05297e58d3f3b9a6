package sim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"wormlan/internal/adapter"
	"wormlan/internal/fault"
	"wormlan/internal/network"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
)

// eventLog is an unbounded trace.Recorder: a pin must hash every event of
// the run, not the tail a bounded ring keeps.
type eventLog []trace.Event

func (l *eventLog) Record(e trace.Event) { *l = append(*l, e) }

// observeConfigs are short runs chosen to reach every fabric path whose
// observables lie outside Counters: saturated single-lane up*/down*, lane
// multiplexing (3 lanes, iSLIP, adaptive selection), one-hop routing, the
// fault paths (corruption, host stalls, a cable kill and heal), in-band
// hello detection on long links, and switch-level replication of
// root-first trees under IDLE fill at two loads.
func observeConfigs() []namedConfig {
	torus := func(route string, nvc int) Config {
		g, geom := topology.TorusWithGeom(8, 8, 1, 1)
		cfg := Config{Graph: g, TorusGeom: geom, Route: route, Scheme: HamiltonianSF,
			OfferedLoad: 0.12, Warmup: 2_000, Measure: 20_000, Seed: 5}
		cfg.Network.NumVCs = nvc
		return cfg
	}
	islip := torus("vcmin", 2)
	islip.Network.Arb = network.ArbISLIP
	islip.Network.ArbIters = 2

	sg, sgeom := topology.BidirShufflenetWithGeom(2, 4, 1)
	shuffle := Config{Graph: sg, ShuffleGeom: sgeom, Route: "shufflenet", Scheme: HamiltonianSF,
		OfferedLoad: 0.12, Warmup: 2_000, Measure: 12_000, Seed: 5}
	shuffle.Network.NumVCs = 3

	mesh := Config{Graph: topology.FullMesh(8, 8, 1), Route: "fullmesh", Scheme: HamiltonianSF,
		OfferedLoad: 0.12, Warmup: 2_000, Measure: 12_000, Seed: 5}

	reliable := adapter.Config{MaxRetries: 3, AckTimeoutBase: 16384, NackBackoff: 2048}
	faults := smallConfig(TreeSF, 0.06)
	faults.Graph = topology.Torus(4, 4, 1, 1)
	faults.MulticastProb = 0.2
	faults.Warmup, faults.Measure = 5_000, 40_000
	faults.Adapter = reliable
	faults.FaultPlan = fault.RandomPlan(faults.Graph, fault.Options{
		Seed: 7, LinkDowns: 1, Heal: 8_000, Corruptions: 12, Stalls: 3, Window: 40_000,
	})

	hello := Config{Graph: topology.BidirShufflenet(2, 3, 1000), Scheme: HamiltonianCT,
		OfferedLoad: 0.02, MulticastProb: 0.2, MeanWorm: 300, NumGroups: 4, GroupSize: 8,
		Warmup: 5_000, Measure: 40_000, Seed: 5, Adapter: reliable, Detect: fault.DetectHello}
	hello.FaultPlan = fault.RandomPlan(hello.Graph, fault.Options{Seed: 2, Corruptions: 6, Window: 40_000})

	switchHeavy := smallConfig(SwitchFabric, 0.2)
	switchHeavy.Graph = topology.Torus(4, 4, 1, 1)
	switchHeavy.MulticastProb, switchHeavy.NumGroups, switchHeavy.GroupSize = 0.5, 3, 6
	switchHeavy.Warmup, switchHeavy.Measure = 2_000, 30_000
	switchLight := switchHeavy
	switchLight.OfferedLoad = 0.1

	return []namedConfig{
		{"torus8x8-updown-saturated", torus("updown", 1)},
		{"shufflenet2x4-3lanes", shuffle},
		{"torus8x8-vcmin-islip", islip},
		{"torus8x8-adaptive", torus("adaptive", 2)},
		{"fullmesh8x8", mesh},
		{"torus4x4-faults", faults},
		{"shufflenet24-hello", hello},
		{"torus4x4-switch-0.2", switchHeavy},
		{"torus4x4-switch-0.1", switchLight},
	}
}

type namedConfig struct {
	name string
	cfg  Config
}

// observeHashes runs cfg traced with metrics on and hashes what the
// Counters-only fingerprints miss: the per-channel busy/stall counters and
// crossbar occupancy, the kernel statistics and histograms, and the Chrome
// export of the full event stream, whose order is the fabric's visit order.
func observeHashes(t *testing.T, cfg Config) observePin {
	var log eventLog
	cfg.Tracer = &log
	cfg.Metrics = true
	r := runHealthy(t, cfg)
	obs := fmt.Sprintf("%s\nchannels=%+v\nswitches=%+v\nticks=%d events=%d maxq=%d ept=%v\nhists=%+v\n",
		fingerprint(r), r.Channels, r.Switches, r.FabricTicks,
		r.EventsDispatched, r.MaxQueueDepth, r.EventsPerTick, *r.Histograms)
	if r.Detection != nil {
		obs += fmt.Sprintf("detection=%+v\n", *r.Detection)
	}
	h := sha256.New()
	if err := trace.WriteChrome(h, log); err != nil {
		t.Fatal(err)
	}
	return observePin{
		Metrics: fmt.Sprintf("%x", sha256.Sum256([]byte(obs))),
		Trace:   fmt.Sprintf("%x", h.Sum(nil)),
		Events:  len(log),
	}
}

type observePin struct {
	Metrics string `json:"metrics"`
	Trace   string `json:"trace"`
	Events  int    `json:"events"`
}

// TestObservabilityPinned holds per-channel stall counters, crossbar
// occupancy and trace order to testdata/observe_pinned.json.  The replay
// and golden fingerprints cover Counters only, so a fabric change that
// reordered trace events or miscounted a stalled tick would pass them; it
// cannot pass this.  The file was generated before the fabric tick became
// event-driven for stalls and must not change in a refactor of the tick:
// on a deliberate model change, replace it with the JSON this test prints.
func TestObservabilityPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/observe_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]observePin{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cfgs := observeConfigs()
	if len(want) != len(cfgs) {
		t.Errorf("pinned file has %d configurations, the test runs %d", len(want), len(cfgs))
	}
	got := map[string]observePin{}
	for _, c := range cfgs {
		got[c.name] = observeHashes(t, c.cfg)
		if got[c.name] != want[c.name] {
			t.Errorf("%s: observables %+v, pinned %+v", c.name, got[c.name], want[c.name])
		}
	}
	if t.Failed() {
		js, _ := json.MarshalIndent(got, "", " ")
		t.Logf("regenerated testdata/observe_pinned.json:\n%s", js)
	}
}

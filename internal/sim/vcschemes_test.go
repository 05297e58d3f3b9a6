package sim

// End-to-end runs of the wider VC routing scheme family — adaptive
// escape-lane routing, Clos spine routing, shufflenet wrap-lane routing —
// plus the VC-multicast conservation sweep: multicast traffic riding
// VC-headered fabrics, mirroring conservation_test.go, with byte-identical
// reruns.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wormlan/internal/adapter"
	"wormlan/internal/fault"
	"wormlan/internal/rng"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
)

// adaptiveConfig is a run on a 4x4 torus under Duato-style adaptive
// routing: lane 0 the up/down escape lane, lanes >= 1 chosen per hop.
func adaptiveConfig(load float64) Config {
	g := topology.Torus(4, 4, 1, 1)
	return Config{
		Graph:       g,
		Route:       "adaptive",
		Scheme:      HamiltonianSF,
		OfferedLoad: load,
		Warmup:      5_000,
		Measure:     60_000,
		Drain:       60_000,
		Seed:        31,
	}
}

// closConfig is a run on a 4-leaf/2-spine Clos under deterministic spine
// routing.
func closConfig(load float64) Config {
	g, geo := topology.ClosWithGeom(4, 2, 4, 1)
	return Config{
		Graph:       g,
		ClosGeom:    geo,
		Route:       "clos",
		Scheme:      HamiltonianSF,
		OfferedLoad: load,
		Warmup:      5_000,
		Measure:     60_000,
		Drain:       60_000,
		Seed:        37,
	}
}

// shuffleConfig is a run on the (2,3) 24-host shufflenet under
// forward-column wrap-lane routing.
func shuffleConfig(load float64) Config {
	g, geo := topology.BidirShufflenetWithGeom(2, 3, 1)
	return Config{
		Graph:       g,
		ShuffleGeom: geo,
		Route:       "shufflenet",
		Scheme:      HamiltonianSF,
		OfferedLoad: load,
		Warmup:      5_000,
		Measure:     60_000,
		// Long multi-column routes keep the small shufflenet near
		// saturation at moderate load: give the queues time to empty.
		Drain: 400_000,
		Seed:  41,
	}
}

// TestVCSchemesHealthyAndDeterministic: each new scheme drains, conserves
// worms, delivers, and reruns byte-identically.
func TestVCSchemesHealthyAndDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(float64) Config
	}{
		{"adaptive", adaptiveConfig},
		{"clos", closConfig},
		{"shufflenet", shuffleConfig},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a, err := Run(tc.mk(0.3))
			if err != nil {
				t.Fatal(err)
			}
			assertHealthy(t, a, tc.name)
			b, err := Run(tc.mk(0.3))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripResults(a), stripResults(b)) {
				t.Fatalf("%s rerun diverged:\na: %v\nb: %v", tc.name, a, b)
			}
		})
	}
}

// TestAdaptiveLinkKillRecovery: adaptive routing on a torus survives a
// mid-run link kill — the injector remap reinstalls a surviving adaptive
// table, the run drains, and conservation holds.
func TestAdaptiveLinkKillRecovery(t *testing.T) {
	mk := func() Config {
		g, geo := topology.TorusWithGeom(4, 4, 1, 1)
		cfg := Config{
			Graph:       g,
			Route:       "adaptive",
			Scheme:      HamiltonianSF,
			OfferedLoad: 0.2,
			Warmup:      5_000,
			Measure:     60_000,
			Drain:       400_000,
			Seed:        47,
			Adapter: adapter.Config{
				MaxRetries:     3,
				AckTimeoutBase: 16384,
				NackBackoff:    2048,
			},
		}
		// Kill a switch-to-switch cable in the middle of the measurement
		// window; the torus stays connected.
		cfg.FaultPlan = (&fault.Plan{}).LinkDown(20_000, geo.Sw[1][1], geo.XPlus[1][1])
		return cfg
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	assertHealthy(t, a, "adaptive link-kill")
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripResults(a), stripResults(b)) {
		t.Fatalf("faulted adaptive rerun diverged:\na: %v\nb: %v", a, b)
	}
}

// drawVCMulticastCases mirrors drawConservationCases over the VC-headered
// schemes: multicast traffic (MulticastProb > 0, groups) on NumVCs >= 2
// fabrics, round-robined across schemes and adapter multicast modes.
func drawVCMulticastCases(n int) []conservationCase {
	r := rng.New(2026, 0xad)
	schemes := []Scheme{HamiltonianSF, HamiltonianCT, TreeSF, TreeCT, TreeFlood}
	routes := []string{"vcmin", "adaptive", "shufflenet", "clos"}
	var cases []conservationCase
	for i := 0; i < n; i++ {
		scheme := schemes[i%len(schemes)]
		rt := routes[i%len(routes)]
		cfg := Config{
			Route:         rt,
			Scheme:        scheme,
			OfferedLoad:   0.005 + 0.02*r.Float64(),
			MulticastProb: 0.1 + 0.2*r.Float64(),
			NumGroups:     2 + r.Intn(3),
			GroupSize:     3 + r.Intn(3),
			MeanWorm:      200 + r.Intn(300),
			Warmup:        5_000,
			Measure:       40_000,
			Drain:         400_000,
			Seed:          uint64(2000 + i),
			Adapter: adapter.Config{
				MaxRetries:     3,
				AckTimeoutBase: 16384,
				NackBackoff:    2048,
			},
		}
		switch rt {
		case "vcmin":
			cfg.Graph, cfg.TorusGeom = topology.TorusWithGeom(4, 4, 1, 1)
		case "adaptive":
			cfg.Graph = topology.Torus(4, 4, 1, 1)
		case "shufflenet":
			cfg.Graph, cfg.ShuffleGeom = topology.BidirShufflenetWithGeom(2, 2, 1)
		case "clos":
			cfg.Graph, cfg.ClosGeom = topology.ClosWithGeom(4, 2, 2, 1)
		}
		cases = append(cases, conservationCase{
			name: fmt.Sprintf("%02d-%s-%s", i, rt, scheme.Name),
			cfg:  cfg,
		})
	}
	return cases
}

// TestVCMulticastConservationSweep: multicast over the VC schemes — each
// case drains, conserves worms, delivers multicast copies, and reruns
// byte-identically (the acceptance bar for lifting the unicast-only
// restriction).
func TestVCMulticastConservationSweep(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	sawMC := false
	for _, c := range drawVCMulticastCases(n) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := runHealthy(t, c.cfg)
			if !res.Drained {
				t.Fatalf("run did not drain by t=%d", res.EndTime)
			}
			ctr := res.Fabric
			if ctr.Injected == 0 {
				t.Fatal("no worms injected — nothing verified")
			}
			if ctr.WormsDropped != 0 {
				t.Fatalf("healthy run dropped %d worms", ctr.WormsDropped)
			}
			if res.MCDeliveries > 0 {
				sawMC = true
			}
			rerun, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripResults(res), stripResults(rerun)) {
				t.Fatalf("rerun diverged:\na: %v\nb: %v", res, rerun)
			}
		})
	}
	if !sawMC {
		t.Error("no case delivered a multicast — the sweep exercised nothing")
	}
}

// TestRemapRebuildFailureIsAnError: when the scheme table cannot be rebuilt
// after a remap, Run stops and returns the error rather than panicking.  A
// valid Config cannot get there (Validate and the initial build exclude
// every construction error), so the test breaks the shared torus geometry
// mid-run, from the tracer, just before the link kill triggers the remap.
func TestRemapRebuildFailureIsAnError(t *testing.T) {
	cfg := vcminConfig(0.05)
	geo := cfg.TorusGeom
	cfg.Adapter = adapter.Config{MaxRetries: 3, AckTimeoutBase: 16384, NackBackoff: 2048}
	cfg.FaultPlan = (&fault.Plan{}).LinkDown(20_000, geo.Sw[1][1], geo.XPlus[1][1])
	cfg.Tracer = trace.Func(func(e trace.Event) {
		if e.At >= 10_000 {
			geo.Hosts[0][0] = nil // host 0.0.0 vanishes from the geometry
		}
	})
	r, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "rebuild after remap") {
		t.Fatalf("Run = (%v, %v), want the rebuild error", r, err)
	}
}

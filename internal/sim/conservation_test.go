package sim

// Conservation-law invariant sweep: the chaos harness's core invariant —
// Injected == Delivered + WormsDropped, and no held channels once the
// fabric drains — promoted to a cheap tier-1 test over a table of random
// small configurations spanning both reference topologies, every scheme,
// and runs with and without fault plans.

import (
	"fmt"
	"testing"

	"wormlan/internal/adapter"
	"wormlan/internal/fault"
	"wormlan/internal/rng"
	"wormlan/internal/topology"
)

// conservationCase is one randomly drawn configuration.
type conservationCase struct {
	name    string
	cfg     Config
	faulted bool
}

// drawConservationCases derives n deterministic pseudo-random small
// configs.  Schemes and topologies round-robin so every combination
// appears; loads, multicast proportions and group shapes are drawn from
// the seeded stream.
func drawConservationCases(n int) []conservationCase {
	r := rng.New(2026, 0xc0&0xff)
	schemes := []Scheme{HamiltonianSF, HamiltonianCT, TreeSF, TreeCT, TreeFlood, SwitchFabric}
	var cases []conservationCase
	for i := 0; i < n; i++ {
		scheme := schemes[i%len(schemes)]
		var g *topology.Graph
		topo := "torus4x4"
		if i%2 == 0 {
			g = topology.Torus(4, 4, 1, 1)
		} else {
			topo = "shufflenet8"
			g = topology.BidirShufflenet(2, 2, 200)
		}
		load := 0.005 + 0.02*r.Float64()
		mcProb := 0.05 + 0.15*r.Float64()
		groups := 2 + r.Intn(3)
		groupSize := 3 + r.Intn(3)
		cfg := Config{
			Graph:         g,
			Scheme:        scheme,
			OfferedLoad:   load,
			MulticastProb: mcProb,
			NumGroups:     groups,
			GroupSize:     groupSize,
			MeanWorm:      200 + r.Intn(300),
			Warmup:        5_000,
			Measure:       40_000,
			// Generous drain so every in-flight worm and capped retry
			// resolves: the conservation law is exact only at quiescence.
			Drain: 400_000,
			Seed:  uint64(1000 + i),
		}
		// The fabric-level 1:1 injected:delivered accounting assumes every
		// fabric worm is a unicast.  Adapter-level schemes replicate at the
		// hosts, so that holds for any traffic mix; switch-level replication
		// clones worms inside the crossbars, so its points run unicast-only.
		if scheme.SwitchLevel {
			cfg.MulticastProb = 0
			cfg.NumGroups = 0
			cfg.GroupSize = 0
		} else {
			// Reliable protocol with capped retries: give-ups are finite,
			// so the run still drains when a fault plan bites.
			cfg.Adapter = adapter.Config{
				MaxRetries:     3,
				AckTimeoutBase: 16384,
				NackBackoff:    2048,
			}
		}
		faulted := !scheme.SwitchLevel && i%2 == 1
		if faulted {
			cfg.FaultPlan = fault.RandomPlan(g, fault.Options{
				Seed:        uint64(7700 + i),
				LinkDowns:   1 + r.Intn(2),
				SwitchDowns: i % 3 % 2, // 0,1,0 pattern: some storms spare the switches
				Corruptions: r.Intn(3),
				Stalls:      r.Intn(2),
				Window:      30_000,
			})
		} else {
			// Keep the stream aligned so adding a case never re-draws
			// every later config.
			_, _, _, _ = r.Intn(2), r.Intn(2), r.Intn(3), r.Intn(2)
		}
		cases = append(cases, conservationCase{
			name:    fmt.Sprintf("%02d-%s-%s-faults=%v", i, scheme.Name, topo, faulted),
			cfg:     cfg,
			faulted: faulted,
		})
	}
	return cases
}

func TestConservationSweep(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 8
	}
	sawFaultDrop := false
	for _, c := range drawConservationCases(n) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := runHealthy(t, c.cfg)
			if !res.Drained {
				t.Fatalf("run did not drain by t=%d (deadlock or unbounded retry?)", res.EndTime)
			}
			ctr := res.Fabric
			if ctr.Injected == 0 {
				t.Fatal("no worms injected — nothing verified")
			}
			if !c.faulted && ctr.WormsDropped != 0 {
				t.Fatalf("healthy run dropped %d worms", ctr.WormsDropped)
			}
			if ctr.WormsDropped > 0 {
				sawFaultDrop = true
			}
		})
	}
	// Only the full table guarantees a biting fault plan; the short-mode
	// prefix may draw storms that miss all in-flight traffic.
	if !sawFaultDrop && !testing.Short() {
		t.Error("no faulted case dropped a worm — the fault half of the table exercised nothing")
	}
}

package sim

import (
	"fmt"
	"reflect"
	"testing"

	"wormlan/internal/adapter"
	"wormlan/internal/topology"
)

// TestFastForwardExactnessLongLinks: on the Figure 11 shufflenet stretched
// to 1000-byte-time links — where most ticks are a payload shift through
// partly filled pipes, so fast-forward windows end at every header, tail
// and bubble — the skipping run's Results, per-channel and per-switch
// metrics included, equal the tick-by-tick run's.
func TestFastForwardExactnessLongLinks(t *testing.T) {
	for _, scheme := range []Scheme{TreeFlood, HamiltonianSF} {
		for _, load := range []float64{0.01, 0.03} {
			t.Run(fmt.Sprintf("%s@%.2f", scheme.Name, load), func(t *testing.T) {
				mk := func(disable bool) *Results {
					cfg := Config{Graph: topology.BidirShufflenet(2, 3, 1000), Scheme: scheme,
						OfferedLoad: load, MulticastProb: 0.2, NumGroups: 4, GroupSize: 6,
						Warmup: 20_000, Measure: 1_000_000, Seed: 11, Metrics: true,
						Adapter: adapter.Config{PlainForwarding: true}}
					cfg.Network.DisableFastForward = disable
					r, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return r
				}
				ff, slow := mk(false), mk(true)
				assertHealthy(t, ff, "fast-forward")
				if !reflect.DeepEqual(stripResults(ff), stripResults(slow)) {
					t.Fatalf("fast-forward diverged from tick-by-tick:\nff:   %+v\nslow: %+v", ff.Fabric, slow.Fabric)
				}
			})
		}
	}
}

package sim

import (
	"testing"

	"wormlan/internal/topology"
)

// benchStack keeps BenchmarkSetup's result live.
var benchStack *Stack

// BenchmarkSetup prices sim.Run's set-up alone, per routing scheme: the
// Build and Wire stages — topology validation, the up/down labelling, the
// scheme's route table, the fabric, the adapter system and the started
// traffic generator — with no kernel run behind them.
// The 64-host shapes are the routing comparison's (core.RoutesVariants).
func BenchmarkSetup(b *testing.B) {
	torus := func(route string, nvc int) Config {
		g, geo := topology.TorusWithGeom(8, 8, 1, 1)
		cfg := Config{Graph: g, TorusGeom: geo, Route: route}
		cfg.Network.NumVCs = nvc
		return cfg
	}
	fullmesh := Config{Graph: topology.FullMesh(8, 8, 1), Route: "fullmesh"}
	clos := Config{Route: "clos"}
	clos.Graph, clos.ClosGeom = topology.ClosWithGeom(8, 4, 8, 1)
	shuffle := Config{Route: "shufflenet"}
	shuffle.Graph, shuffle.ShuffleGeom = topology.BidirShufflenetWithGeom(2, 4, 1)
	shuffle.Network.NumVCs = 3
	cases := []struct {
		name string
		cfg  Config
	}{
		{"updown", torus("updown", 1)},
		{"vcmin", torus("vcmin", 2)},
		{"adaptive", torus("adaptive", 2)},
		{"fullmesh", fullmesh},
		{"clos", clos},
		{"shufflenet", shuffle},
	}
	for _, c := range cases {
		cfg := c.cfg
		cfg.Scheme = HamiltonianSF // multicast mode; irrelevant for pure unicast
		cfg.OfferedLoad = 0.08
		cfg.Measure = 1
		cfg.Seed = 1996
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := Build(cfg)
				if err == nil {
					err = st.Wire()
				}
				if err != nil {
					b.Fatal(err)
				}
				benchStack = st
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/point")
		})
	}
}

package wormlan

// One benchmark per table/figure of the paper's evaluation, plus the
// DESIGN.md ablations.  Each benchmark iteration regenerates the figure at
// Quick scale and reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` doubles as a smoke reproduction:
//
//	BenchmarkFig10   multicast latency vs load, 8x8 torus (3 schemes)
//	BenchmarkFig11   delay vs load and multicast proportion, shufflenet
//	BenchmarkFig12   prototype per-host throughput vs packet size
//	BenchmarkFig13   prototype per-host input-buffer loss
//
// Every reported quantity is deterministic — seed-fixed simulation for
// Figs 10/11, a seedless queueing model for Figs 12/13 — so only ns/op
// depends on the machine; shapes are asserted by internal/core's and
// internal/emu's tests.

import (
	"context"
	"testing"

	"wormlan/internal/core"
	"wormlan/internal/sim"
	"wormlan/internal/sweep"
	"wormlan/internal/topology"

	"wormlan/internal/adapter"
)

// runGrid runs a figure grid on the given worker count (1 = sequential,
// 0 = GOMAXPROCS).
func runGrid[R any](b *testing.B, workers int, g sweep.Grid[R]) []R {
	b.Helper()
	rows, err := sweep.Run(context.Background(), &sweep.Engine{Workers: workers}, g)
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runGrid(b, 1, core.Fig10Grid(core.Quick, 1996, 0))
		// Report the heaviest-load latency of each scheme.
		last := map[string]float64{}
		for _, r := range rows {
			last[r.Scheme] = r.MCLatency
		}
		b.ReportMetric(last["hamiltonian"], "hc-sf-latency")
		b.ReportMetric(last["hamiltonian-cut-thru"], "hc-ct-latency")
		b.ReportMetric(last["tree-flood"], "tree-latency")
	}
}

// BenchmarkFig10Point benchmarks a single simulation point, the unit of
// work behind every Figure 10 cell.
func BenchmarkFig10Point(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := sim.Run(sim.Config{
			Graph:         topology.Torus(8, 8, 1, 1),
			Scheme:        sim.TreeSF,
			OfferedLoad:   0.02,
			MulticastProb: 0.1,
			NumGroups:     10,
			GroupSize:     10,
			Warmup:        20_000,
			Measure:       60_000,
			Seed:          uint64(i + 1),
			Adapter:       adapter.Config{PlainForwarding: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MCLatency.Mean(), "mc-latency")
	}
}

// BenchmarkFig10Parallel regenerates Figure 10 through the sweep engine
// at GOMAXPROCS workers; compare against BenchmarkFig10 (sequential) to
// measure the worker-pool speedup on this machine.  Rows are identical in
// both by the engine's determinism contract (DESIGN.md §8).
func BenchmarkFig10Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runGrid(b, 0, core.Fig10Grid(core.Quick, 1996, 0))
		last := map[string]float64{}
		for _, r := range rows {
			last[r.Scheme] = r.MCLatency
		}
		b.ReportMetric(last["tree-flood"], "tree-latency")
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runGrid(b, 1, core.Fig11Grid(core.Quick, 1996))
		var tree, hc float64
		var nTree, nHC int
		for _, r := range rows {
			if r.Scheme == "tree-flood" {
				tree += r.Delay
				nTree++
			} else {
				hc += r.Delay
				nHC++
			}
		}
		b.ReportMetric(tree/float64(nTree), "tree-delay")
		b.ReportMetric(hc/float64(nHC), "hc-delay")
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		single, _ := core.Fig12And13(core.Quick)
		b.ReportMetric(single[len(single)-1].ThroughputMbps, "single-8K-Mbps")
		b.ReportMetric(single[0].ThroughputMbps, "single-1K-Mbps")
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, all := core.Fig12And13(core.Quick)
		b.ReportMetric(all[len(all)-1].LossRate*100, "allsend-8K-loss-%")
		b.ReportMetric(all[len(all)-1].ThroughputMbps, "allsend-8K-Mbps")
	}
}

func BenchmarkAblationBufferClasses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runGrid(b, 1, core.BufferClassesGrid(uint64(i+1)))
		b.ReportMetric(float64(r[0].GiveUps), "two-class-giveups")
		b.ReportMetric(float64(r[1].GiveUps), "one-class-giveups")
	}
}

func BenchmarkAblationOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runGrid(b, 1, core.OrderingGrid(uint64(i+1)))
		b.ReportMetric(r[1].MCLatency-r[0].MCLatency, "ordering-cost")
	}
}

func BenchmarkAblationTreeConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.AblationTreeConstruction(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r[0].WireHops), "heap-tree-hops")
		b.ReportMetric(float64(r[1].WireHops), "greedy-tree-hops")
	}
}

func BenchmarkAblationFabricVsAdapter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runGrid(b, 1, core.FabricVsAdapterGrid(uint64(i+1)))
		b.ReportMetric(r[0].MCLatency, "fabric-mc-latency")
		b.ReportMetric(r[1].MCLatency, "adapter-tree-mc-latency")
	}
}

func BenchmarkAblationRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.AblationRouting()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r[0].MeanHops, "updown-hops")
		b.ReportMetric(r[1].MeanHops, "tree-only-hops")
	}
}

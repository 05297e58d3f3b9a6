// Package core declares the paper's experiments: every figure of the
// evaluation (Figures 10-13) and the ablations listed in DESIGN.md, each a
// sweep.Grid of independent points (Fig10Grid, Fig11Grid, RoutesGrid, the
// ablation grids) plus the printer for its rows.  Callers run a grid with
// sweep.Run under their own sweep.Engine; cmd/mcbench's figure table and
// the top-level benchmarks are the consumers.
package core

import (
	"context"
	"fmt"
	"io"

	"wormlan/internal/adapter"
	"wormlan/internal/emu"
	"wormlan/internal/sim"
	"wormlan/internal/sweep"
	"wormlan/internal/topology"
)

// Scale selects experiment fidelity.
type Scale int

const (
	// Quick runs reduced load grids and shorter windows (seconds per
	// figure) — for CI and `go test -bench`.
	Quick Scale = iota
	// Full runs the DESIGN.md grids (minutes per figure).
	Full
)

// Fig10Row is one (scheme, load) cell of Figure 10: average multicast
// latency against network load on the 8x8 torus.
type Fig10Row struct {
	Scheme    string
	Load      float64
	MCLatency float64 // byte-times
	Uni       float64
	Thpt      float64
	Samples   int64
}

// Fig10Schemes are the three curves of Figure 10.  The "tree" curve uses
// the flood-from-originator variant of Section 6: both tree variants are
// store-and-forward, but the flood's parallelism (no serializing pre-hop
// through the group root) is what sustains the paper's claim that the tree
// wins at heavy load; the rooted/ordered variant is compared separately in
// the ordering ablation.
var Fig10Schemes = []sim.Scheme{sim.HamiltonianSF, sim.HamiltonianCT, sim.TreeFlood}

// Fig10Loads returns the offered-load grid.  The paper sweeps 0.04-0.12;
// our torus saturates at about 2.5x lower offered load (see
// EXPERIMENTS.md: the paper's axis is consistent with per-host utilization
// *including* forwarded multicast copies, ours counts generated traffic
// only), so the grid spans the same region of the latency curve.
func Fig10Loads(s Scale) []float64 {
	if s == Quick {
		return []float64{0.015, 0.03, 0.045}
	}
	return []float64{0.010, 0.015, 0.020, 0.025, 0.030, 0.035, 0.040, 0.045, 0.050, 0.055, 0.060}
}

func fig10Windows(s Scale) (warm, meas int64) {
	if s == Quick {
		return 30_000, 120_000
	}
	return 60_000, 400_000
}

// figPoint is the declarative identity of one figure cell: everything
// that determines the cell's simulation, and nothing else, so the sweep
// point key and derived seed change exactly when the cell does.
type figPoint struct {
	Scheme        string  `json:"scheme"`
	Load          float64 `json:"load"`
	MulticastProb float64 `json:"mcProb"`
	Warmup        int64   `json:"warmup"`
	Measure       int64   `json:"measure"`
	// Routing-scheme comparison knobs (the routes grid).  omitempty keeps
	// the point keys and derived seeds of the pre-VC figures byte-stable:
	// a fig10 point still serializes exactly as it did before these fields
	// existed.
	Route  string `json:"route,omitempty"`
	NumVCs int    `json:"nvc,omitempty"`
	Arb    string `json:"arb,omitempty"`
}

// checked gives a figure point its run verdict; an error names the point.
func checked(point string, r *sim.Results, err error) error {
	if err == nil {
		err = r.Healthy()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", point, err)
	}
	return nil
}

// Fig10Grid is Figure 10 as a sweep grid: average multicast latency vs
// offered load on the 8x8 torus for the Hamiltonian circuit
// (store-and-forward), the Hamiltonian circuit with cut-through, and the
// tree; 10 multicast groups of 10 members, 10% multicast probability, mean
// worm 400 bytes (Section 7.1).  One point per (scheme, load) cell, each
// running an independent kernel under a derived per-point seed, so rows
// are identical for any worker count.  nvc > 1 runs the same figure on a
// multi-lane fabric — the rows are byte-identical (routes ride lane 0; see
// TestVCTransparency) but the timing records what the extra lanes cost.
// nvc <= 1 leaves the point identity untouched.
func Fig10Grid(s Scale, seed uint64, nvc int) sweep.Grid[Fig10Row] {
	warm, meas := fig10Windows(s)
	g := sweep.Grid[Fig10Row]{Name: "fig10", BaseSeed: seed}
	if nvc <= 1 {
		nvc = 0
	}
	for _, scheme := range Fig10Schemes {
		for _, load := range Fig10Loads(s) {
			scheme, load := scheme, load
			g.Add(figPoint{Scheme: scheme.Name, Load: load, MulticastProb: 0.1, Warmup: warm, Measure: meas, NumVCs: nvc},
				func(_ context.Context, pseed uint64) (Fig10Row, error) {
					cfg := sim.Config{
						Graph:         topology.Torus(8, 8, 1, 1),
						Scheme:        scheme,
						OfferedLoad:   load,
						MulticastProb: 0.1,
						NumGroups:     10,
						GroupSize:     10,
						Warmup:        warm,
						Measure:       meas,
						Seed:          pseed,
						Adapter:       adapter.Config{PlainForwarding: true},
					}
					cfg.Network.NumVCs = nvc
					r, err := sim.Run(cfg)
					if err = checked(fmt.Sprintf("fig10 %s load %v", scheme.Name, load), r, err); err != nil {
						return Fig10Row{}, err
					}
					return Fig10Row{
						Scheme:    scheme.Name,
						Load:      load,
						MCLatency: r.MCLatency.Mean(),
						Uni:       r.UniLatency.Mean(),
						Thpt:      r.ThroughputPerHost,
						Samples:   r.MCDeliveries,
					}, nil
				})
		}
	}
	return g
}

// PrintFig10 renders the rows as the figure's series.
func PrintFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintln(w, "Figure 10: average multicast latency vs offered load, 8x8 torus")
	fmt.Fprintln(w, "scheme                  load    mcLatency   uniLatency   thpt/host   n")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %6.3f   %9.0f   %9.0f    %8.4f   %d\n",
			r.Scheme, r.Load, r.MCLatency, r.Uni, r.Thpt, r.Samples)
	}
}

// Fig11Row is one (scheme, proportion, load) cell of Figure 11: average
// delay on the 24-node bidirectional shufflenet.
type Fig11Row struct {
	Scheme string
	Prop   float64
	Load   float64
	Delay  float64 // combined mean delay over all worms, byte-times
	MCLat  float64
}

// Fig11Props are the multicast-proportion curves of Figure 11.
var Fig11Props = []float64{0.05, 0.10, 0.15, 0.20}

// Fig11Loads returns the offered-load grid for the shufflenet.
func Fig11Loads(s Scale) []float64 {
	if s == Quick {
		return []float64{0.01, 0.03}
	}
	return []float64{0.005, 0.010, 0.015, 0.020, 0.025, 0.030, 0.035, 0.040, 0.045}
}

// Fig11Grid is Figure 11 as a sweep grid: average delay for varying
// proportions of multicast traffic on the 24-node bidirectional shufflenet
// (propagation delay 1000 byte-times), tree vs Hamiltonian circuit; 4
// groups of 6.  One point per (scheme, proportion, load) cell.
func Fig11Grid(s Scale, seed uint64) sweep.Grid[Fig11Row] {
	warm, meas := int64(100_000), int64(500_000)
	if s == Full {
		warm, meas = 150_000, 800_000
	}
	g := sweep.Grid[Fig11Row]{Name: "fig11", BaseSeed: seed}
	for _, scheme := range []sim.Scheme{sim.TreeFlood, sim.HamiltonianSF} {
		for _, prop := range Fig11Props {
			for _, load := range Fig11Loads(s) {
				scheme, prop, load := scheme, prop, load
				g.Add(figPoint{Scheme: scheme.Name, Load: load, MulticastProb: prop, Warmup: warm, Measure: meas},
					func(_ context.Context, pseed uint64) (Fig11Row, error) {
						r, err := sim.Run(sim.Config{
							Graph:         topology.BidirShufflenet(2, 3, 1000),
							Scheme:        scheme,
							OfferedLoad:   load,
							MulticastProb: prop,
							NumGroups:     4,
							GroupSize:     6,
							Warmup:        warm,
							Measure:       meas,
							Seed:          pseed,
							Adapter:       adapter.Config{PlainForwarding: true},
						})
						if err = checked(fmt.Sprintf("fig11 %s prop %v load %v", scheme.Name, prop, load), r, err); err != nil {
							return Fig11Row{}, err
						}
						return Fig11Row{
							Scheme: scheme.Name,
							Prop:   prop,
							Load:   load,
							Delay:  r.AllLatency.Mean(),
							MCLat:  r.MCLatency.Mean(),
						}, nil
					})
			}
		}
	}
	return g
}

// PrintFig11 renders the rows.
func PrintFig11(w io.Writer, rows []Fig11Row) {
	fmt.Fprintln(w, "Figure 11: average delay vs offered load, 24-node bidirectional shufflenet")
	fmt.Fprintln(w, "scheme                 prop    load      delay    mcLatency")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %4.2f  %6.3f  %9.0f   %9.0f\n",
			r.Scheme, r.Prop, r.Load, r.Delay, r.MCLat)
	}
}

// Fig12Sizes is the packet-size grid of Figures 12 and 13.
func Fig12Sizes(s Scale) []int {
	if s == Quick {
		return []int{1024, 4096, 8192}
	}
	return []int{1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192}
}

// Fig12Point carries both the throughput (Figure 12) and loss (Figure 13)
// of one measured point.
type Fig12Point = emu.Point

// Fig12And13 reproduces the prototype measurements: per-host throughput
// (Figure 12) and per-host input-buffer loss (Figure 13) for a Hamiltonian
// circuit of eight hosts, single-sender and all-send, across packet sizes.
func Fig12And13(s Scale) (single, all []Fig12Point) {
	return emu.Sweep(Fig12Sizes(s), false), emu.Sweep(Fig12Sizes(s), true)
}

// PrintFig12And13 renders both figures' rows.
func PrintFig12And13(w io.Writer, single, all []Fig12Point) {
	fmt.Fprintln(w, "Figure 12: measured per-host throughput, 8-host Hamiltonian circuit")
	fmt.Fprintln(w, "Figure 13: per-host input-buffer loss (all-send case)")
	for _, p := range single {
		fmt.Fprintf(w, "  %s\n", p)
	}
	for _, p := range all {
		fmt.Fprintf(w, "  %s\n", p)
	}
}

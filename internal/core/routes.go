package core

// The routing-scheme comparison grid: unicast latency and throughput under
// up/down routing, VC-partitioned minimal torus routing (dateline, plain
// scan and iSLIP arbitration), Duato-style adaptive escape-lane routing,
// direct full-mesh routing, deterministic Clos spine routing, and
// shufflenet forward-column routing.  This is not a figure from the paper
// — the paper fixes up/down routing (Section 2) — but the natural
// companion experiment once the fabric has virtual channels: how much of
// the torus's path diversity does the spanning-tree discipline give up,
// and what does a richer physical topology buy instead?  The grid stays
// unicast (load comparability), though the schemes themselves now carry
// multicast too (see sim.Config.Route).

import (
	"context"
	"fmt"
	"io"

	"wormlan/internal/network"
	"wormlan/internal/sim"
	"wormlan/internal/sweep"
	"wormlan/internal/topology"
	"wormlan/internal/vcroute"
)

// RoutesRow is one (variant, load) cell of the routing comparison.
type RoutesRow struct {
	Variant string
	Load    float64
	UniLat  float64 // mean unicast latency, byte-times
	Thpt    float64 // delivered payload bytes per byte-time per host
	Samples int64
}

// RoutesVariant is one curve of the routing comparison grid.
type RoutesVariant struct {
	Name   string
	Route  string // sim.Config.Route
	Topo   string // topology.Named fabric the curve runs on
	NumVCs int
	Arb    string // "" = port scan, "islip" = iSLIP
}

// RoutesVariants are the comparison curves: the repo's default
// spanning-tree routing, dateline minimal routing under both arbiters,
// Duato-style adaptive routing, the VC-free full mesh, Clos spine
// routing, and shufflenet forward-column routing.  All run 64 hosts (8x8
// torus with one host per switch; 8-switch mesh with eight hosts each;
// 8-leaf Clos with eight hosts per leaf; (2,4) shufflenet with one host
// per switch) so per-host load means the same thing on every curve.
var RoutesVariants = []RoutesVariant{
	{Name: "updown", Route: "updown", Topo: "torus8x8", NumVCs: 1},
	{Name: "vcmin", Route: "vcmin", Topo: "torus8x8", NumVCs: 2},
	{Name: "vcmin-islip", Route: "vcmin", Topo: "torus8x8", NumVCs: 2, Arb: "islip"},
	{Name: "adaptive", Route: "adaptive", Topo: "torus8x8", NumVCs: 2},
	{Name: "fullmesh", Route: "fullmesh", Topo: "fullmesh8x8", NumVCs: 1},
	{Name: "clos", Route: "clos", Topo: "clos8x4", NumVCs: 1},
	{Name: "shufflenet", Route: "shufflenet", Topo: "shufflenet64", NumVCs: 3},
}

// RoutesLoads returns the offered-load grid for the comparison.
func RoutesLoads(s Scale) []float64 {
	if s == Quick {
		return []float64{0.04, 0.08, 0.12}
	}
	return []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20}
}

func routesWindows(s Scale) (warm, meas int64) {
	if s == Quick {
		return 20_000, 80_000
	}
	return 50_000, 300_000
}

// routesConfig builds the sim config for one (variant, load) cell.
func routesConfig(v RoutesVariant, load float64, warm, meas int64, seed uint64) (sim.Config, error) {
	net, err := topology.Named(v.Topo, 0)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		Graph:       net.Graph,
		TorusGeom:   net.Torus,
		ClosGeom:    net.Clos,
		ShuffleGeom: net.Shuffle,
		Route:       v.Route,
		Scheme:      sim.HamiltonianSF, // multicast mode; irrelevant for pure unicast
		OfferedLoad: load,
		Warmup:      warm,
		Measure:     meas,
		Seed:        seed,
	}
	cfg.Network.NumVCs = v.NumVCs
	cfg.Network.ArbIters = 2 // read only under iSLIP
	cfg.Network.Arb, err = network.ParseArb(v.Arb)
	return cfg, err
}

// VariantsWithVCs returns the default curves with every multi-lane
// variant's lane count replaced by nvc (nvc < 2 keeps the defaults), never
// below the scheme's own lane floor — the hook behind mcbench's -vcs flag.
func VariantsWithVCs(nvc int) []RoutesVariant {
	out := append([]RoutesVariant(nil), RoutesVariants...)
	if nvc < 2 {
		return out
	}
	for i := range out {
		if out[i].NumVCs >= 2 {
			// An unknown route is sim.Run's error to report; its zero
			// Scheme has no floor, so nothing changes here.
			sch, _ := vcroute.Lookup(out[i].Route)
			out[i].NumVCs = max(nvc, sch.MinLanes)
		}
	}
	return out
}

// RoutesGrid is the comparison as a sweep grid over the given curves
// (RoutesVariants, or VariantsWithVCs for another lane count): one point
// per (variant, load) cell, each with a seed derived from the point
// identity, so rows are identical for any worker count.
func RoutesGrid(s Scale, seed uint64, variants []RoutesVariant) sweep.Grid[RoutesRow] {
	warm, meas := routesWindows(s)
	g := sweep.Grid[RoutesRow]{Name: "routes", BaseSeed: seed}
	for _, v := range variants {
		for _, load := range RoutesLoads(s) {
			v, load := v, load
			g.Add(figPoint{Scheme: v.Name, Load: load, Warmup: warm, Measure: meas,
				Route: v.Route, NumVCs: v.NumVCs, Arb: v.Arb},
				func(_ context.Context, pseed uint64) (RoutesRow, error) {
					cfg, err := routesConfig(v, load, warm, meas, pseed)
					if err != nil {
						return RoutesRow{}, err
					}
					r, err := sim.Run(cfg)
					if err = checked(fmt.Sprintf("routes %s load %v", v.Name, load), r, err); err != nil {
						return RoutesRow{}, err
					}
					return RoutesRow{
						Variant: v.Name,
						Load:    load,
						UniLat:  r.UniLatency.Mean(),
						Thpt:    r.ThroughputPerHost,
						Samples: r.UniDeliveries,
					}, nil
				})
		}
	}
	return g
}

// PrintRoutes renders the rows as the comparison's series.
func PrintRoutes(w io.Writer, rows []RoutesRow) {
	fmt.Fprintln(w, "Routing comparison: unicast latency vs offered load, 64 hosts")
	fmt.Fprintln(w, "variant                 load    uniLatency   thpt/host   n")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %6.3f   %9.0f    %8.4f   %d\n",
			r.Variant, r.Load, r.UniLat, r.Thpt, r.Samples)
	}
}

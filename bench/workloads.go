package main

// The five workloads.  Names are permanent: BENCHMARK.json, golden.json and
// every later A/B refer to them.  A workload is a table of cells; one lap
// runs every cell once (grid-short-points: Copies times) under seeds that
// sweep derives from (-seed, workload, cell, lap, copy).  Laps is the size
// of a full report run; a -seconds run does as many laps as fit.  Windows
// never shrink — to fit a smaller budget, run fewer laps.

import (
	"fmt"

	"wormlan/internal/adapter"
	"wormlan/internal/fault"
	"wormlan/internal/network"
	"wormlan/internal/sim"
	"wormlan/internal/topology"
)

// cell is one configuration of a workload: plain data, so it serializes
// into the sweep point identity and names its golden fingerprint.
type cell struct {
	Topo   string `json:"topo"`            // see buildGraph
	Route  string `json:"route,omitempty"` // sim.Config.Route
	NumVCs int    `json:"nvc,omitempty"`
	Arb    string `json:"arb,omitempty"` // "" = port scan, "islip"
	Scheme string `json:"scheme"`        // sim.Scheme name

	Load     float64 `json:"load"`
	MCProb   float64 `json:"mcProb,omitempty"`
	MeanWorm int     `json:"meanWorm,omitempty"`
	Groups   int     `json:"groups,omitempty"`
	GroupSz  int     `json:"groupSize,omitempty"`

	Warmup  int64 `json:"warmup"`
	Measure int64 `json:"measure"`
	Drain   int64 `json:"drain,omitempty"`

	// Adapter selects the host-adapter protocol: "plain" forwards with
	// unbounded buffers as the paper's own Section 7 simulator did; "" is
	// the adapter package's default ACK/NACK configuration; "faults" is the
	// ACK/NACK protocol (Sections 4-6) with short timers under a random
	// fault plan.
	Adapter string `json:"adapter,omitempty"`
	Detect  string `json:"detect,omitempty"` // "" = oracle, "hello"

	// Copies is how many points of this cell one lap runs (default 1).
	Copies int `json:"-"`
}

// name is the cell's key inside its workload (golden.json, span dumps).
func (c cell) name() string {
	s := c.Topo
	if c.Route != "" {
		s += "/" + c.Route
		if c.Arb != "" {
			s += "-" + c.Arb
		}
	}
	if c.Detect != "" {
		s += "/" + c.Detect
	}
	return fmt.Sprintf("%s/%s@%.3f/mc%.2f", s, c.Scheme, c.Load, c.MCProb)
}

type workload struct {
	Name  string
	Why   string
	Laps  int
	Cells []cell
}

// pointsPerLap is the number of sim.Run calls one lap makes.
func (w workload) pointsPerLap() int {
	n := 0
	for _, c := range w.Cells {
		n += c.copies()
	}
	return n
}

func (c cell) copies() int {
	if c.Copies > 0 {
		return c.Copies
	}
	return 1
}

var schemes = map[string]sim.Scheme{
	sim.HamiltonianSF.Name: sim.HamiltonianSF,
	sim.HamiltonianCT.Name: sim.HamiltonianCT,
	sim.TreeSF.Name:        sim.TreeSF,
	sim.TreeCT.Name:        sim.TreeCT,
	sim.TreeFlood.Name:     sim.TreeFlood,
}

// routeVariant mirrors core.RoutesVariants (the routing comparison grid's
// seven curves) so the untraced pass needs nothing from internal/core.
type routeVariant struct {
	Route  string
	NumVCs int
	Arb    string
	Topo   string
}

var routeVariants = []routeVariant{
	{Route: "updown", NumVCs: 1, Topo: "torus8x8"},
	{Route: "vcmin", NumVCs: 2, Topo: "torus8x8"},
	{Route: "vcmin", NumVCs: 2, Arb: "islip", Topo: "torus8x8"},
	{Route: "adaptive", NumVCs: 2, Topo: "torus8x8"},
	{Route: "fullmesh", NumVCs: 1, Topo: "fullmesh8x8"},
	{Route: "clos", NumVCs: 1, Topo: "clos8x4x8"},
	{Route: "shufflenet", NumVCs: 3, Topo: "shufflenet2x4"},
}

var fig10Schemes = []string{"hamiltonian", "hamiltonian-cut-thru", "tree-flood"}

func fig10Cell(scheme string, load float64, warm, meas int64) cell {
	return cell{Topo: "torus8x8", Adapter: "plain", Scheme: scheme, Load: load, MCProb: 0.1,
		Groups: 10, GroupSz: 10, Warmup: warm, Measure: meas}
}

func routeCell(v routeVariant, load float64, warm, meas int64) cell {
	// The scheme only picks the multicast mode; the grid is pure unicast.
	return cell{Topo: v.Topo, Route: v.Route, NumVCs: v.NumVCs, Arb: v.Arb,
		Scheme: "hamiltonian", Load: load, Warmup: warm, Measure: meas}
}

func faultCell(topo, scheme, detect string) cell {
	return cell{Topo: topo, Scheme: scheme, Detect: detect, Adapter: "faults",
		Load: 0.02, MCProb: 0.2, MeanWorm: 300, Groups: 4, GroupSz: 8,
		Warmup: 20_000, Measure: 300_000, Drain: 300_000}
}

func workloads() []workload {
	torus := workload{Name: "torus-contended", Laps: 2,
		Why: "Figure 10's heavy end: Fabric.Tick does nearly all the work; the single-lane scan-arbiter hot path"}
	for _, s := range fig10Schemes {
		for _, load := range []float64{0.030, 0.045, 0.060} {
			torus.Cells = append(torus.Cells, fig10Cell(s, load, 60_000, 400_000))
		}
	}

	shuf := workload{Name: "shufflenet-longlink", Laps: 1,
		Why: "Figure 11 stretched long: 1000-byte-time pipes, contention-free streaming; kernel dispatch, event queue and Fabric.Skip dominate"}
	for _, s := range []string{"tree-flood", "hamiltonian"} {
		for _, pmc := range []float64{0.05, 0.20} {
			for _, load := range []float64{0.01, 0.03} {
				shuf.Cells = append(shuf.Cells, cell{Topo: "shufflenet24", Adapter: "plain", Scheme: s, Load: load,
					MCProb: pmc, Groups: 4, GroupSz: 6, Warmup: 150_000, Measure: 8_000_000})
			}
		}
	}

	routes := workload{Name: "routes-lanes", Laps: 1,
		Why: "the same network layer used differently: VC headers, lane scheduler, iSLIP, adaptive selection, four topologies"}
	for _, v := range routeVariants {
		for _, load := range []float64{0.08, 0.12} {
			routes.Cells = append(routes.Cells, routeCell(v, load, 50_000, 300_000))
		}
	}

	grid := workload{Name: "grid-short-points", Laps: 20,
		Why: "a figure grid in miniature: 4000-byte-time windows, so per-point set-up and GC are the cost"}
	for _, s := range fig10Schemes {
		for _, load := range []float64{0.015, 0.030, 0.045} {
			c := fig10Cell(s, load, 0, 4_000)
			c.Copies = 3
			grid.Cells = append(grid.Cells, c)
		}
	}
	for _, v := range routeVariants {
		for _, load := range []float64{0.04, 0.08, 0.12} {
			grid.Cells = append(grid.Cells, routeCell(v, load, 0, 4_000))
		}
	}

	faults := workload{Name: "reliable-faults", Laps: 4,
		Why: "the paper's own ACK/NACK protocol under flit corruption, host stalls and hello detection: fault, liveness, mapper and table rebuilds"}
	for _, topo := range []string{"torus8x8", "shufflenet24"} {
		for _, s := range []string{"hamiltonian-cut-thru", "tree"} {
			faults.Cells = append(faults.Cells, faultCell(topo, s, ""))
		}
	}
	faults.Cells = append(faults.Cells,
		faultCell("shufflenet24", "hamiltonian-cut-thru", "hello"),
		faultCell("shufflenet24", "tree", "hello"))

	return []workload{torus, shuf, routes, grid, faults}
}

// buildGraph constructs the topology a cell names and stores the geometry
// its route scheme needs.
func buildGraph(topo string, cfg *sim.Config) error {
	switch topo {
	case "torus8x8":
		cfg.Graph, cfg.TorusGeom = topology.TorusWithGeom(8, 8, 1, 1)
	case "shufflenet24":
		cfg.Graph = topology.BidirShufflenet(2, 3, 1000)
	case "fullmesh8x8":
		cfg.Graph = topology.FullMesh(8, 8, 1)
	case "clos8x4x8":
		cfg.Graph, cfg.ClosGeom = topology.ClosWithGeom(8, 4, 8, 1)
	case "shufflenet2x4":
		cfg.Graph, cfg.ShuffleGeom = topology.BidirShufflenetWithGeom(2, 4, 1)
	default:
		return fmt.Errorf("unknown topology %q", topo)
	}
	return nil
}

// config builds the cell's sim.Config under a derived point seed.  The
// fault plan of a faulted cell depends on the lap alone: like the topology it
// is part of the workload, and the seed varies what runs over it — traffic,
// group membership, protocol jitter.  (Plans drawn from the seed as well
// made the remap count, and with it every host-time metric of
// reliable-faults, swing by a tenth from seed to seed.)
func (c cell) config(seed uint64, lap int) (sim.Config, error) {
	scheme, ok := schemes[c.Scheme]
	if !ok {
		return sim.Config{}, fmt.Errorf("unknown scheme %q", c.Scheme)
	}
	cfg := sim.Config{
		Route:         c.Route,
		Scheme:        scheme,
		OfferedLoad:   c.Load,
		MulticastProb: c.MCProb,
		MeanWorm:      c.MeanWorm,
		NumGroups:     c.Groups,
		GroupSize:     c.GroupSz,
		Warmup:        c.Warmup,
		Measure:       c.Measure,
		Drain:         c.Drain,
		Seed:          seed,
	}
	if err := buildGraph(c.Topo, &cfg); err != nil {
		return sim.Config{}, err
	}
	cfg.Network.NumVCs = c.NumVCs
	if c.Arb == "islip" {
		cfg.Network.Arb = network.ArbISLIP
		cfg.Network.ArbIters = 2
	}
	switch c.Adapter {
	case "":
		return cfg, nil
	case "plain":
		cfg.Adapter = adapter.Config{PlainForwarding: true}
		return cfg, nil
	case "faults":
	default:
		return sim.Config{}, fmt.Errorf("unknown adapter configuration %q", c.Adapter)
	}
	// Short timers and few retries, so every give-up resolves well before
	// the drain deadline and the quiescence invariants stay checkable.
	cfg.Adapter = adapter.Config{MaxRetries: 3, AckTimeoutBase: 16384, NackBackoff: 2048}
	// Flit corruptions and host stalls only.  Link and switch failures are
	// left out because about one such point in 200 ends with the fabric's
	// conservation count off by one (see README), and a benchmark workload
	// must be one on which no operation fails.  Remaps still happen: hello
	// detection raises them by the hundred from false positives alone.
	cfg.FaultPlan = fault.RandomPlan(cfg.Graph, fault.Options{
		Seed: uint64(lap) + 1, Corruptions: 20, Stalls: 2, Window: c.Measure,
	})
	if c.Detect == "hello" {
		cfg.Detect = fault.DetectHello
	}
	return cfg, nil
}

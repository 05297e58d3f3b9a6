package core

import (
	"context"
	"fmt"
	"io"

	"wormlan/internal/adapter"
	"wormlan/internal/multicast"
	"wormlan/internal/rng"
	"wormlan/internal/sim"
	"wormlan/internal/sweep"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// ablationPoint is the declarative identity of one ablation cell.  The
// base seed is part of the identity (not replaced by the derived per-point
// seed): ablations are paired comparisons, so every variant must see the
// same stochastic workload and the point key must still distinguish seeds.
type ablationPoint struct {
	Ablation string  `json:"ablation"`
	Variant  string  `json:"variant"`
	Load     float64 `json:"load,omitempty"`
	Seed     uint64  `json:"seed"`
}

// Ablations runs the DESIGN.md ablations in their published order — four
// paired grids under eng, the two closed-form comparisons between them —
// and prints each to w.
func Ablations(ctx context.Context, eng *sweep.Engine, seed uint64, w io.Writer) error {
	bc, err := sweep.Run(ctx, eng, BufferClassesGrid(seed))
	if err != nil {
		return err
	}
	PrintBufferClasses(w, bc)
	or, err := sweep.Run(ctx, eng, OrderingGrid(seed))
	if err != nil {
		return err
	}
	PrintOrdering(w, or)
	tc, err := AblationTreeConstruction(seed)
	if err != nil {
		return err
	}
	PrintTreeConstruction(w, tc)
	rt, err := AblationRouting()
	if err != nil {
		return err
	}
	PrintRouting(w, rt)
	fa, err := sweep.Run(ctx, eng, FabricVsAdapterGrid(seed))
	if err != nil {
		return err
	}
	PrintFabricVsAdapter(w, fa)
	bs, err := sweep.Run(ctx, eng, BufferStudyGrid(seed, []float64{0.01, 0.02, 0.04, 0.06}))
	if err != nil {
		return err
	}
	PrintBufferStudy(w, bs)
	return nil
}

// BufferClassResult compares the two-buffer-class rule (Figure 7) against
// the single-class negative control under crossing multicasts with
// one-worm buffers.
type BufferClassResult struct {
	SingleClass bool
	Delivered   int64
	GiveUps     int64
	Nacks       int64
	Retransmits int64
}

// runBufferClass executes one variant of the Figure 6 scenario.
func runBufferClass(single bool, seed uint64) (BufferClassResult, error) {
	var out BufferClassResult
	g := topology.Star(6)
	st, err := sim.Build(sim.Config{
		Graph:  g,
		Scheme: sim.HamiltonianSF,
		Seed:   seed,
		Adapter: adapter.Config{
			ClassBytes:  400,
			NackBackoff: 1024,
			MaxRetries:  8,
			SingleClass: single,
		},
	})
	if err == nil {
		err = st.Attach()
	}
	if err != nil {
		return out, err
	}
	var delivered int64
	st.Sys.OnAppDeliver = func(adapter.AppDelivery) { delivered++ }
	hosts := g.Hosts()
	if err := st.AddGroup(1, hosts); err != nil {
		return out, err
	}
	for _, h := range hosts {
		if _, err := st.Sys.Adapter(h).SendMulticast(1, 400); err != nil {
			return out, err
		}
	}
	err = st.K.Run(0)
	if err = checked(fmt.Sprintf("buffer-classes single=%v", single), st.Collect(), err); err != nil {
		return out, err
	}
	as := st.Sys.Stats()
	return BufferClassResult{
		SingleClass: single,
		Delivered:   delivered,
		GiveUps:     as.GiveUps,
		Nacks:       as.Nacks,
		Retransmits: as.Retransmits,
	}, nil
}

// BufferClassesGrid is the Figure 6 scenario at system scale: every member
// of a group originates simultaneously with buffers sized for exactly one
// worm.  With two classes everything completes; with one class the
// crossing reservations livelock into NACK storms and give-ups.  Rows:
// two-class, single-class.
func BufferClassesGrid(seed uint64) sweep.Grid[BufferClassResult] {
	g := sweep.Grid[BufferClassResult]{Name: "ablation-buffer-classes", BaseSeed: seed}
	for _, single := range []bool{false, true} {
		single := single
		variant := "two-class"
		if single {
			variant = "single-class"
		}
		g.Add(ablationPoint{Ablation: "buffer-classes", Variant: variant, Seed: seed},
			func(context.Context, uint64) (BufferClassResult, error) {
				return runBufferClass(single, seed)
			})
	}
	return g
}

// PrintBufferClasses renders the ablation.
func PrintBufferClasses(w io.Writer, r []BufferClassResult) {
	fmt.Fprintln(w, "Ablation: two buffer classes vs single class (Figure 6/7)")
	for _, row := range r {
		name := "two-class"
		if row.SingleClass {
			name = "single-class"
		}
		fmt.Fprintf(w, "  %-12s delivered=%d giveups=%d nacks=%d retransmits=%d\n",
			name, row.Delivered, row.GiveUps, row.Nacks, row.Retransmits)
	}
}

// OrderingResult compares circuit multicast with and without total
// ordering through the lowest-ID serializer (Section 5).
type OrderingResult struct {
	Ordered   bool
	MCLatency float64
}

// OrderingGrid measures the latency cost of total ordering on the 8x8
// torus at a moderate load.  Rows: unordered, ordered.
func OrderingGrid(seed uint64) sweep.Grid[OrderingResult] {
	g := sweep.Grid[OrderingResult]{Name: "ablation-ordering", BaseSeed: seed}
	for _, ordered := range []bool{false, true} {
		ordered := ordered
		variant := "unordered"
		if ordered {
			variant = "ordered"
		}
		g.Add(ablationPoint{Ablation: "ordering", Variant: variant, Seed: seed},
			func(context.Context, uint64) (OrderingResult, error) {
				r, err := sim.Run(sim.Config{
					Graph:         topology.Torus(8, 8, 1, 1),
					Scheme:        sim.HamiltonianSF,
					TotalOrdering: ordered,
					OfferedLoad:   0.02,
					MulticastProb: 0.1,
					NumGroups:     10,
					GroupSize:     10,
					Warmup:        40_000,
					Measure:       200_000,
					Seed:          seed,
					Adapter:       adapter.Config{PlainForwarding: true},
				})
				if err = checked("ordering "+variant, r, err); err != nil {
					return OrderingResult{}, err
				}
				return OrderingResult{Ordered: ordered, MCLatency: r.MCLatency.Mean()}, nil
			})
	}
	return g
}

// PrintOrdering renders the ablation.
func PrintOrdering(w io.Writer, r []OrderingResult) {
	fmt.Fprintln(w, "Ablation: total-ordering cost (circuit via lowest-ID serializer)")
	for _, row := range r {
		name := "unordered"
		if row.Ordered {
			name = "ordered"
		}
		fmt.Fprintf(w, "  %-10s mcLatency=%.0f\n", name, row.MCLatency)
	}
}

// TreeBuildResult compares the topology-aware greedy tree against the
// ID-heap tree (the Figure 8 metric at work).
type TreeBuildResult struct {
	Builder  string
	WireHops int
	Depth    int
}

// AblationTreeConstruction quantifies why tree edges must be chosen over
// the host-connectivity hop metric: total wire cost of greedy vs heap
// layout for random groups on the torus.
func AblationTreeConstruction(seed uint64) ([2]TreeBuildResult, error) {
	g := topology.Torus(8, 8, 1, 1)
	hosts := g.Hosts()
	r := rng.New(seed, 99)
	perm := r.Perm(len(hosts))
	var members []topology.NodeID
	for _, p := range perm[:10] {
		members = append(members, hosts[p])
	}
	grp, err := multicast.NewGroup(1, members)
	if err != nil {
		return [2]TreeBuildResult{}, err
	}
	heap, err := multicast.NewTreeByID(grp, 2)
	if err != nil {
		return [2]TreeBuildResult{}, err
	}
	greedy, err := multicast.NewTreeGreedy(g, grp, 2)
	if err != nil {
		return [2]TreeBuildResult{}, err
	}
	return [2]TreeBuildResult{
		{Builder: "id-heap", WireHops: heap.WireHops(g), Depth: heap.Depth()},
		{Builder: "greedy", WireHops: greedy.WireHops(g), Depth: greedy.Depth()},
	}, nil
}

// PrintTreeConstruction renders the ablation.
func PrintTreeConstruction(w io.Writer, r [2]TreeBuildResult) {
	fmt.Fprintln(w, "Ablation: tree construction (Figure 8 hop metric)")
	for _, row := range r {
		fmt.Fprintf(w, "  %-8s wireHops=%d depth=%d\n", row.Builder, row.WireHops, row.Depth)
	}
}

// FabricVsAdapterResult compares switch-level multicast (Section 3) with
// host-adapter multicast (Sections 4-6) under identical workloads.
type FabricVsAdapterResult struct {
	Scheme    string
	MCLatency float64
	UniLat    float64
}

// FabricVsAdapterGrid is the paper's central design comparison: the
// switch fabric gives the lowest multicast latency but taxes unicast
// traffic with tree-restricted routing; the adapter schemes leave unicast
// free and pay per-hop reassembly on multicast.  Rows: switch-fabric,
// tree, hamiltonian.
func FabricVsAdapterGrid(seed uint64) sweep.Grid[FabricVsAdapterResult] {
	g := sweep.Grid[FabricVsAdapterResult]{Name: "ablation-fabric-vs-adapter", BaseSeed: seed}
	for _, scheme := range []sim.Scheme{sim.SwitchFabric, sim.TreeSF, sim.HamiltonianSF} {
		scheme := scheme
		g.Add(ablationPoint{Ablation: "fabric-vs-adapter", Variant: scheme.Name, Seed: seed},
			func(context.Context, uint64) (FabricVsAdapterResult, error) {
				r, err := sim.Run(sim.Config{
					Graph:         topology.Torus(8, 8, 1, 1),
					Scheme:        scheme,
					OfferedLoad:   0.02,
					MulticastProb: 0.1,
					NumGroups:     10,
					GroupSize:     10,
					Warmup:        40_000,
					Measure:       200_000,
					Seed:          seed,
					Adapter:       adapter.Config{PlainForwarding: true},
				})
				if err = checked("fabric-vs-adapter "+scheme.Name, r, err); err != nil {
					return FabricVsAdapterResult{}, err
				}
				return FabricVsAdapterResult{
					Scheme:    scheme.Name,
					MCLatency: r.MCLatency.Mean(),
					UniLat:    r.UniLatency.Mean(),
				}, nil
			})
	}
	return g
}

// PrintFabricVsAdapter renders the comparison.
func PrintFabricVsAdapter(w io.Writer, r []FabricVsAdapterResult) {
	fmt.Fprintln(w, "Ablation: switch-fabric vs host-adapter multicast")
	for _, row := range r {
		fmt.Fprintf(w, "  %-22s mcLatency=%8.0f uniLatency=%8.0f\n",
			row.Scheme, row.MCLatency, row.UniLat)
	}
}

// RoutingResult compares unrestricted up/down routing with the
// tree-restricted discipline required by switch-level multicast scheme A
// (Section 3).
type RoutingResult struct {
	Restricted bool
	MeanHops   float64
}

// AblationRouting measures the path-length cost of restricting all worms
// to the up/down spanning tree on a topology with crosslinks.
func AblationRouting() ([2]RoutingResult, error) {
	g := topology.Torus(8, 8, 1, 1)
	ud, err := updown.New(g, topology.None)
	if err != nil {
		return [2]RoutingResult{}, err
	}
	free, err := ud.NewTable(false)
	if err != nil {
		return [2]RoutingResult{}, err
	}
	restricted, err := ud.NewTable(true)
	if err != nil {
		return [2]RoutingResult{}, err
	}
	return [2]RoutingResult{
		{Restricted: false, MeanHops: free.MeanHops()},
		{Restricted: true, MeanHops: restricted.MeanHops()},
	}, nil
}

// PrintRouting renders the ablation.
func PrintRouting(w io.Writer, r [2]RoutingResult) {
	fmt.Fprintln(w, "Ablation: up/down routing vs spanning-tree-restricted routing")
	for _, row := range r {
		name := "up/down"
		if row.Restricted {
			name = "tree-only"
		}
		fmt.Fprintf(w, "  %-10s meanHops=%.2f\n", name, row.MeanHops)
	}
}

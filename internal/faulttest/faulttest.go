// Package faulttest puts a fault injector and delivery counters on a
// sim.Stack (up*/down* or scheme routing, byte-level fabric, host adapters),
// so chaos tests can run a deterministic failure schedule against live
// traffic and then check the system-wide invariants: conservation of worms,
// route validity after recovery, absence of deadlock, and no leaked held
// channels.
//
// The checks return errors (RunErr, which carries the run verdict, and
// RoutesErr), so the storm matrix consumed by the sweep engine and mcbench
// can use them; the package imports no testing.
package faulttest

import (
	"fmt"

	"wormlan/internal/adapter"
	"wormlan/internal/des"
	"wormlan/internal/fault"
	"wormlan/internal/network"
	"wormlan/internal/sim"
	"wormlan/internal/topology"
	"wormlan/internal/vcroute"
)

// Bench is one fully wired LAN plus its fault injector: the stack's K,
// Fabric, Sys and Inj, and UD/Table tracking the routing currently installed
// (replaced on every successful remap).
type Bench struct {
	*sim.Stack
	G *topology.Graph

	// Scheme is the routing discipline the bench runs.  After each remap
	// its Build recomputes the table from the fresh up*/down* labelling,
	// whose failure set reflects the detector's view; up/down (Build nil)
	// keeps the remap's own table.
	Scheme vcroute.Scheme

	// Delivery observations.
	UniDelivered int64
	McDelivered  map[int64]int // transfer ID -> copies delivered
}

// NewBenchRouted builds the stack over net under routing scheme sch (the
// fabric config is raised to the scheme's lane floor and header mode) and
// schedules plan against it.  The injector is wired so that every topology
// change re-runs the mapper and installs the recomputed routing into both
// the fabric and the adapter layer.  It needs no testing.TB, so sweep grids
// can build benches from worker goroutines.
func NewBenchRouted(net topology.Net, sch vcroute.Scheme, acfg adapter.Config, plan *fault.Plan,
	icfg fault.InjectorConfig, ncfg network.Config) (*Bench, error) {
	st, err := sim.Build(sim.Config{
		Graph: net.Graph, TorusGeom: net.Torus, ClosGeom: net.Clos, ShuffleGeom: net.Shuffle,
		Route:         sch.Name,
		Scheme:        sim.Scheme{Mode: acfg.Mode, CutThrough: acfg.CutThrough},
		TotalOrdering: acfg.TotalOrdering,
		Adapter:       acfg,
		Network:       ncfg,
		Seed:          77,
	})
	if err == nil {
		err = st.Attach()
	}
	if err != nil {
		return nil, err
	}
	b := &Bench{Stack: st, G: net.Graph, Scheme: sch, McDelivered: map[int64]int{}}
	b.Sys.OnAppDeliver = func(d adapter.AppDelivery) {
		if d.Transfer != nil {
			b.McDelivered[d.Transfer.ID]++
		} else {
			b.UniDelivered++
		}
	}
	if err := b.Faults(plan, icfg); err != nil {
		return nil, err
	}
	return b, nil
}

// RunErr drives the kernel to deadline and returns the run verdict
// (sim.Results.Healthy) plus a stricter rule: with capped retries every
// protocol activity is finite, so the run must also drain.  A failure
// quotes the fabric's stall report, which walks ports in index order.
func (b *Bench) RunErr(deadline des.Time) error {
	if err := b.K.Run(deadline); err != nil {
		return fmt.Errorf("kernel error: %w", err)
	}
	err := b.Collect().Healthy()
	if n := b.K.Pending(); err == nil && n != 0 {
		err = fmt.Errorf("simulation did not drain by t=%d: %d events pending (deadlock?)", deadline, n)
	}
	if err != nil {
		return fmt.Errorf("%w\n%s", err, b.Fabric.StallReport())
	}
	return nil
}

// RoutesErr verifies the installed table after recovery under up*/down*:
// every ordered pair of reachable hosts has a route, valid over the
// surviving subgraph (crosses no failed link, respects up*/down*).  A
// scheme-built table gets no further check here: sim.Build validated the
// first one, and Stack.Reroute validates and proves every rebuild.
func (b *Bench) RoutesErr() error {
	if b.Scheme.Build != nil {
		return nil
	}
	hosts := b.G.Hosts()
	checked := 0
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst || !b.UD.Reachable(src) || !b.UD.Reachable(dst) {
				continue
			}
			rt := b.Table.Lookup(src, dst)
			if len(rt.Ports) == 0 {
				return fmt.Errorf("no surviving route %d -> %d", src, dst)
			}
			if err := b.UD.VerifyRoute(rt); err != nil {
				return fmt.Errorf("route %d -> %d invalid after recovery: %w", src, dst, err)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("no reachable host pairs survived — nothing verified")
	}
	return nil
}

// Outcome is a comparable summary of one chaos run, for determinism
// checks (two runs with the same seed must produce identical outcomes).
type Outcome struct {
	Fabric  network.Counters
	Adapter adapter.Stats
	Inject  fault.Counters
	// Detection is the hello mode's summary (zero value under the oracle).
	// Histograms are fixed arrays, so the whole struct stays comparable.
	Detection fault.DetectionStats
	Epoch     int64
	Uni       int64
	McCount   int
	McSum     int
}

// Outcome snapshots the run's observable state.
func (b *Bench) Outcome() Outcome {
	o := Outcome{
		Fabric:  b.Fabric.Counters(),
		Adapter: b.Sys.Stats(),
		Inject:  b.Inj.Counters(),
		Epoch:   b.Fabric.TopologyEpoch(),
		Uni:     b.UniDelivered,
		McCount: len(b.McDelivered),
	}
	if d := b.Inj.Detection(); d != nil {
		o.Detection = *d
	}
	//wormlint:ordered integer sum over all values; addition is commutative
	for _, c := range b.McDelivered {
		o.McSum += c
	}
	return o
}

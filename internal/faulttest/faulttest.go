// Package faulttest wires a full stack (distributed mapper, up*/down*
// routing, byte-level fabric, host adapters) together with a fault
// injector, so chaos tests can run a deterministic failure schedule
// against live traffic and then check the system-wide invariants:
// conservation of worms, route validity after recovery, absence of
// deadlock, and no leaked held channels.
//
// The invariant checks return errors (ConservationErr and friends), so the
// storm matrix consumed by the sweep engine and mcbench can use them; the
// package imports no testing.
package faulttest

import (
	"fmt"
	"sort"

	"wormlan/internal/adapter"
	"wormlan/internal/des"
	"wormlan/internal/fault"
	"wormlan/internal/flit"
	"wormlan/internal/mapper"
	"wormlan/internal/multicast"
	"wormlan/internal/network"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
	"wormlan/internal/vcroute"
)

// Bench is one fully wired LAN plus its fault injector.
type Bench struct {
	K   *des.Kernel
	G   *topology.Graph
	F   *network.Fabric
	Sys *adapter.System
	Inj *fault.Injector

	// UD/Tbl track the routing currently installed (replaced on every
	// successful remap).
	UD  *updown.Routing
	Tbl *updown.Table

	// Scheme is the routing discipline the bench runs.  After each remap
	// its Build recomputes the table from the fresh up*/down* labelling,
	// whose failure set reflects the detector's view; up/down (Build nil)
	// keeps the remap's own table.
	Scheme vcroute.Scheme
	net    topology.Net // G with its geometry, for Scheme.Build
	nvc    int          // lanes per link the fabric runs

	// Delivery observations.
	UniDelivered int64
	McDelivered  map[int64]int // transfer ID -> copies delivered
}

// NewBench builds the up*/down*-routed stack over g and schedules plan
// against it.  The injector is wired so that every topology change re-runs
// the mapper and installs the recomputed routing into both the fabric and
// the adapter layer.  It needs no testing.TB, so sweep grids can build
// benches from worker goroutines.
func NewBench(g *topology.Graph, acfg adapter.Config, plan *fault.Plan, icfg fault.InjectorConfig) (*Bench, error) {
	sch, err := vcroute.Lookup("")
	if err != nil {
		return nil, err
	}
	return NewBenchRouted(topology.Net{Graph: g}, sch, acfg, plan, icfg, network.Config{})
}

// NewBenchRouted is NewBench under routing scheme sch with a custom fabric
// config, which it raises to the scheme's lane floor and header mode.
func NewBenchRouted(net topology.Net, sch vcroute.Scheme, acfg adapter.Config, plan *fault.Plan,
	icfg fault.InjectorConfig, ncfg network.Config) (*Bench, error) {
	ncfg.NumVCs = max(ncfg.NumVCs, sch.MinLanes)
	ncfg.VCHeaders = ncfg.VCHeaders || sch.VCEncoded
	g := net.Graph
	b := &Bench{K: des.NewKernel(), G: g, Scheme: sch, net: net, nvc: ncfg.NumVCs, McDelivered: map[int64]int{}}

	m, err := mapper.Run(g, nil)
	if err != nil {
		return nil, err
	}
	b.UD, err = updown.New(g, m.Root)
	if err != nil {
		return nil, err
	}
	if sch.Build == nil {
		b.Tbl, err = b.UD.NewTable(false)
	} else {
		b.Tbl, err = sch.Build(net, b.nvc, b.UD)
	}
	if err != nil {
		return nil, err
	}
	b.F, err = network.New(b.K, g, b.UD, ncfg)
	if err == nil && b.Scheme.Adaptive {
		err = b.F.InstallAdaptive(b.UD)
	}
	if err != nil {
		return nil, err
	}
	b.Sys, err = adapter.NewSystem(b.K, b.F, b.Tbl, acfg, 77)
	if err != nil {
		return nil, err
	}
	b.Sys.OnAppDeliver = func(d adapter.AppDelivery) {
		if d.Transfer != nil {
			b.McDelivered[d.Transfer.ID]++
		} else {
			b.UniDelivered++
		}
	}
	if icfg.OnRemap == nil {
		icfg.OnRemap = b.reroute
	}
	b.Inj, err = fault.NewInjector(b.K, b.F, plan, icfg)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// reroute is the default remap callback: rebuild the scheme's table over
// the survivors and install it.  A rebuild error is a construction-level
// failure (bad geometry) the initial build pre-excludes; it halts the
// kernel on the old routes so RunErr returns it.
func (b *Bench) reroute(ud *updown.Routing, tbl *updown.Table) {
	if b.Scheme.Build != nil {
		var err error
		if b.Scheme.Adaptive {
			err = b.F.InstallAdaptive(ud)
		}
		if err == nil {
			tbl, err = b.Scheme.Build(b.net, b.nvc, ud)
		}
		if err != nil {
			b.K.Halt(fmt.Errorf("faulttest: route %s rebuild after remap: %w", b.Scheme.Name, err))
			return
		}
	}
	b.UD, b.Tbl = ud, tbl
	b.Sys.Reroute(tbl, ud.Reachable)
}

// AddGroupErr registers a multicast group over the given members.
func (b *Bench) AddGroupErr(id int, members []topology.NodeID) (*multicast.Group, error) {
	grp, err := multicast.NewGroup(id, members)
	if err != nil {
		return nil, err
	}
	if _, err := b.Sys.AddGroup(grp); err != nil {
		return nil, err
	}
	return grp, nil
}

// RunErr drives the kernel and reports an error if the simulation does
// not drain before the deadline: with capped retries every protocol
// activity is finite, so hitting the deadline means the fabric (or a
// retry loop) wedged.
func (b *Bench) RunErr(deadline des.Time) error {
	if err := b.K.Run(deadline); err != nil {
		return fmt.Errorf("kernel error: %w", err)
	}
	if n := b.K.Pending(); n != 0 {
		return fmt.Errorf("simulation did not drain by t=%d: %d events pending (deadlock?)\n%s",
			deadline, n, b.F.StallReport())
	}
	return nil
}

// ConservationErr checks the fabric-level worm conservation law: every
// injected worm was either delivered or counted as dropped.  (Valid for
// adapter-level protocols, where every fabric worm is a unicast.)
func (b *Bench) ConservationErr() error {
	ctr := b.F.Counters()
	if ctr.Injected != ctr.Delivered+ctr.WormsDropped {
		return fmt.Errorf("conservation violated: injected %d != delivered %d + dropped %d",
			ctr.Injected, ctr.Delivered, ctr.WormsDropped)
	}
	return nil
}

// HeldChannelsErr checks that no switch output is still bound to a worm —
// the wormhole equivalent of a leaked lock.  The report lists worms in ID
// order: the message is asserted byte-for-byte by determinism replays, so
// its wording must not depend on map iteration order.
func (b *Bench) HeldChannelsErr() error {
	held := b.F.HeldChannels()
	if len(held) == 0 {
		return nil
	}
	worms := make([]*flit.Worm, 0, len(held))
	for w := range held {
		worms = append(worms, w)
	}
	sort.Slice(worms, func(i, j int) bool { return worms[i].ID < worms[j].ID })
	msg := ""
	for _, w := range worms {
		msg += fmt.Sprintf("worm %d still holds %v; ", w.ID, held[w])
	}
	return fmt.Errorf("%d worms hold channels after drain: %s\n%s",
		len(held), msg, b.F.StallReport())
}

// RoutesErr verifies the installed table after recovery.  Under up*/down*:
// every ordered pair of reachable hosts has a route, valid over the
// surviving subgraph (crosses no failed link, respects up*/down*).  A
// scheme-built table must still walk the topology; the rigid schemes prune
// pairs they cannot detour (empty routes), so completeness is not required.
func (b *Bench) RoutesErr() error {
	if b.Scheme.Build != nil {
		if err := vcroute.ValidateTable(b.G, b.Tbl, b.Scheme.VCEncoded, false); err != nil {
			return fmt.Errorf("rebuilt %s table invalid after recovery: %w", b.Scheme.Name, err)
		}
		return nil
	}
	hosts := b.G.Hosts()
	checked := 0
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst || !b.UD.Reachable(src) || !b.UD.Reachable(dst) {
				continue
			}
			rt := b.Tbl.Lookup(src, dst)
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
		Fabric:  b.F.Counters(),
		Adapter: b.Sys.Stats(),
		Inject:  b.Inj.Counters(),
		Epoch:   b.F.TopologyEpoch(),
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

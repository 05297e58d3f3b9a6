package main

// The traced harness: sim.Run's wiring, rebuilt from the layers' exported
// constructors so that each call can be timed from outside.  This is the
// one file of the benchmark that touches anything below internal/sim — an
// API refactor of the lower layers breaks this file and nothing else here.
// The harness must reproduce sim.Run exactly: its fingerprint is compared
// with the untraced pass's for every point (trace.fidelity_failures).

import (
	"fmt"
	"runtime"
	"time"

	"wormlan/internal/adapter"
	"wormlan/internal/des"
	"wormlan/internal/eventq"
	"wormlan/internal/fault"
	"wormlan/internal/flit"
	"wormlan/internal/multicast"
	"wormlan/internal/network"
	"wormlan/internal/route"
	"wormlan/internal/sim"
	"wormlan/internal/topology"
	"wormlan/internal/traffic"
	"wormlan/internal/updown"
	"wormlan/internal/vcroute"
)

// span is one timed interval.  Spans of one point share Point; Parent is
// the ID of the span that caused this one (0 for a point's root).  A span
// with Count > 0 is an aggregate: the kernel's run loop makes millions of
// tick passes, so its children are summed per class — EndNs-StartNs is then
// the total duration of Count intervals, not a position on the timeline.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Point   string `json:"point"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int64  `json:"count,omitempty"`
}

// recorder keeps spans in memory; -trace-out writes them when the run ends.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// add stores a span under the next ID and returns that ID.
func (r *recorder) add(s span) int {
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) begin(name, point string, parent int) int {
	return r.add(span{Parent: parent, Name: name, Point: point, StartNs: r.now()})
}

// end closes a span and returns its duration in nanoseconds.
func (r *recorder) end(id int) int64 {
	s := &r.spans[id-1]
	s.EndNs = r.now()
	return s.EndNs - s.StartNs
}

func (r *recorder) aggregate(name, point string, parent int, totalNs, count int64) {
	if count > 0 {
		r.add(span{Parent: parent, Name: name, Point: point, EndNs: totalNs, Count: count})
	}
}

// layerTotals sums one workload's traced points.  Durations are in
// nanoseconds, keyed by span name for the set-up calls.
type layerTotals struct {
	Points int
	SpanNs map[string]int64

	RunNs, CollectNs int64

	TickNs, SkipNs, EventNs, RemapNs int64
	Ticks, SkipRuns, SkippedTicks    int64
	Events, Remaps                   int64
	KernelTicks, KernelDispatched    int64
	FabricSkips, FabricSkippedTicks  int64
	MaxQueue                         int

	SendNs, Sends int64

	TableAllocBytes uint64
	RunMallocs      uint64

	FlitHops, WormsDelivered, WormsDropped, HellosDeferred int64
	WormsGenerated                                         int64
	Adapter                                                adapter.Stats
	VerdictsDown, FalsePositives                           int64
}

// timedSink times the traffic generator's calls into the adapter layer.
type timedSink struct {
	inner traffic.Sink
	lt    *layerTotals
}

func (s *timedSink) SendUnicast(src, dst topology.NodeID, payload int) error {
	t := time.Now()
	err := s.inner.SendUnicast(src, dst, payload)
	s.lt.SendNs += int64(time.Since(t))
	s.lt.Sends++
	return err
}

func (s *timedSink) SendMulticast(src topology.NodeID, group, payload int) error {
	t := time.Now()
	err := s.inner.SendMulticast(src, group, payload)
	s.lt.SendNs += int64(time.Since(t))
	s.lt.Sends++
	return err
}

// vcEncoded reports whether a route scheme's bytes carry lane ids.
func vcEncoded(routeName string) bool {
	return routeName == "vcmin" || routeName == "adaptive" || routeName == "shufflenet"
}

// tracedRun runs one point through the harness, recording a span around
// each call into a layer and adding the point's work to lt.
func tracedRun(rec *recorder, point string, c cell, seed uint64, lap int, lt *layerTotals) (fingerprint, error) {
	var zero fingerprint
	root := rec.begin("point", point, 0)
	setupNs := int64(0)
	// timed wraps one set-up call in a span under the point's root.
	timed := func(name string, fn func() error) error {
		id := rec.begin(name, point, root)
		err := fn()
		d := rec.end(id)
		lt.SpanNs[name] += d
		setupNs += d
		return err
	}

	var cfg sim.Config
	if err := timed("topology.build", func() (err error) {
		cfg, err = c.config(seed, lap)
		return err
	}); err != nil {
		return zero, err
	}
	if cfg.MeanWorm == 0 {
		cfg.MeanWorm = 400
	}
	if cfg.Drain == 0 {
		cfg.Drain = cfg.Measure / 2
	}
	if err := cfg.Validate(); err != nil {
		return zero, err
	}

	k := des.NewKernel()
	var ud *updown.Routing
	if err := timed("updown.new", func() (err error) {
		ud, err = updown.New(cfg.Graph, topology.None)
		return err
	}); err != nil {
		return zero, err
	}

	ncfg := cfg.Network
	var table *updown.Table
	if cfg.Route == "" || cfg.Route == "updown" {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := timed("updown.table", func() (err error) {
			table, err = ud.NewTable(false)
			return err
		}); err != nil {
			return zero, err
		}
		runtime.ReadMemStats(&after)
		lt.TableAllocBytes += after.TotalAlloc - before.TotalAlloc
	} else {
		if err := timed("vcroute.build", func() (err error) {
			switch cfg.Route {
			case "vcmin":
				ncfg.NumVCs = max(ncfg.NumVCs, 2)
				ncfg.VCHeaders = true
				table, err = vcroute.TorusMinimal(cfg.Graph, cfg.TorusGeom, ncfg.NumVCs)
			case "fullmesh":
				table, err = vcroute.FullMesh(cfg.Graph)
			case "adaptive":
				ncfg.NumVCs = max(ncfg.NumVCs, 2)
				ncfg.VCHeaders = true
				table, err = vcroute.Adaptive(cfg.Graph, ud)
			case "clos":
				table, err = vcroute.Clos(cfg.Graph, cfg.ClosGeom, nil)
			case "shufflenet":
				ncfg.NumVCs = max(ncfg.NumVCs, 3)
				ncfg.VCHeaders = true
				table, err = vcroute.Shufflenet(cfg.Graph, cfg.ShuffleGeom, ncfg.NumVCs, nil)
			default:
				err = fmt.Errorf("harness: unknown route scheme %q", cfg.Route)
			}
			return err
		}); err != nil {
			return zero, err
		}
		if err := timed("vcroute.validate", func() error {
			return vcroute.ValidateTable(cfg.Graph, table, vcEncoded(cfg.Route), true)
		}); err != nil {
			return zero, err
		}
	}

	var fab *network.Fabric
	if err := timed("network.new", func() (err error) {
		fab, err = network.New(k, cfg.Graph, ud, ncfg)
		return err
	}); err != nil {
		return zero, err
	}
	installAdaptive := func(rud *updown.Routing) error {
		at, err := network.NewAdaptiveTable(cfg.Graph, rud)
		if err != nil {
			return err
		}
		return fab.SetAdaptive(at)
	}
	if cfg.Route == "adaptive" {
		if err := timed("network.adaptive_table", func() error { return installAdaptive(ud) }); err != nil {
			return zero, err
		}
	}

	hosts := cfg.Graph.Hosts()
	windowStart, windowEnd := cfg.Warmup, cfg.Warmup+cfg.Measure
	fp := fingerprint{}
	inWindow := func(created des.Time) bool { return created >= windowStart && created < windowEnd }

	var members [][]topology.NodeID
	var groupsOf map[topology.NodeID][]int
	if cfg.NumGroups > 0 {
		if err := timed("multicast.groups", func() (err error) {
			members, groupsOf, err = traffic.AssignGroups(hosts, cfg.NumGroups, cfg.GroupSize, cfg.Seed)
			return err
		}); err != nil {
			return zero, err
		}
	}

	acfg := cfg.Adapter
	acfg.Mode = cfg.Scheme.Mode
	acfg.CutThrough = cfg.Scheme.CutThrough
	acfg.TotalOrdering = cfg.TotalOrdering
	var sys *adapter.System
	if err := timed("adapter.new_system", func() (err error) {
		sys, err = adapter.NewSystem(k, fab, table, acfg, cfg.Seed)
		return err
	}); err != nil {
		return zero, err
	}
	if err := timed("multicast.groups", func() error {
		for gi, set := range members {
			grp, err := multicast.NewGroup(gi, set)
			if err != nil {
				return err
			}
			if _, err := sys.AddGroup(grp); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return zero, err
	}
	sys.OnAppDeliver = func(d adapter.AppDelivery) {
		if d.Transfer != nil {
			if inWindow(d.Transfer.Created) {
				fp.MCDeliveries++
			}
		} else if inWindow(d.Worm.Created) {
			fp.UniDeliveries++
		}
	}

	var inj *fault.Injector
	if cfg.FaultPlan != nil || cfg.Detect == fault.DetectHello {
		icfg := fault.InjectorConfig{
			RemapDelay: cfg.RemapDelay,
			Mode:       cfg.Detect,
			OnRemap: func(rud *updown.Routing, tbl *updown.Table) {
				ntbl, err := rebuildTable(&cfg, rud, tbl, ncfg.NumVCs, installAdaptive)
				if err != nil {
					panic(fmt.Sprintf("harness: route %q rebuild after remap: %v", cfg.Route, err))
				}
				sys.Reroute(ntbl, rud.Reachable)
			},
		}
		if cfg.Detect == fault.DetectHello {
			if cfg.Liveness != nil {
				icfg.Hello = *cfg.Liveness
			}
			icfg.HelloUntil = windowEnd
		}
		plan := cfg.FaultPlan
		if plan == nil {
			plan = &fault.Plan{}
		}
		if err := timed("fault.new_injector", func() (err error) {
			inj, err = fault.NewInjector(k, fab, plan, icfg)
			return err
		}); err != nil {
			return zero, err
		}
	}

	var gen *traffic.Generator
	if err := timed("traffic.new", func() (err error) {
		gen, err = traffic.New(k, traffic.Config{
			OfferedLoad:   cfg.OfferedLoad,
			MeanWorm:      cfg.MeanWorm,
			MulticastProb: cfg.MulticastProb,
			Until:         windowEnd,
		}, hosts, groupsOf, &timedSink{inner: sys, lt: lt}, cfg.Seed)
		if err == nil {
			gen.Start()
		}
		return err
	}); err != nil {
		return zero, err
	}

	runStart := rec.now()
	lt.SpanNs["sim.setup_self"] += runStart - rec.spans[root-1].StartNs - setupNs

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run := rec.begin("des.run", point, root)
	cl := classifier{rec: rec, k: k, fab: fab, inj: inj, point: point, parent: run, last: rec.now()}
	k.Observe = cl.observe
	err := k.Run(windowEnd + cfg.Drain)
	k.Observe = nil
	lt.RunNs += rec.end(run)
	runtime.ReadMemStats(&after)
	lt.RunMallocs += after.Mallocs - before.Mallocs
	if err != nil {
		return zero, err
	}
	if gen.Err() != nil {
		return zero, gen.Err()
	}
	cl.flush(lt)

	collect := rec.begin("sim.collect", point, root)
	fp.GeneratedWorms, fp.GeneratedMC, _ = gen.Generated()
	fp.Adapter = sys.Stats()
	fp.Fabric = fab.Counters()
	if inj != nil {
		fp.Fault = inj.Counters()
		if det := inj.Detection(); det != nil {
			lt.VerdictsDown += det.Liveness.PeerDowns
			lt.FalsePositives += det.Liveness.FalsePositives
		}
	}
	fp.Stalled = fab.Stalled(10 * des.Time(cfg.MeanWorm))
	fp.Drained = k.Pending() == 0
	fp.HeldChannels = len(fab.HeldChannels())
	fp.EndTime = k.Now()
	fp.EventsDispatched = k.Dispatched()
	fp.MaxQueueDepth = k.MaxQueue()
	lt.CollectNs += rec.end(collect)
	rec.end(root)

	lt.Points++
	lt.KernelTicks += k.Ticks()
	lt.KernelDispatched += k.Dispatched()
	skips, skipped := fab.SkipStats()
	lt.FabricSkips += skips
	lt.FabricSkippedTicks += skipped
	lt.MaxQueue = max(lt.MaxQueue, k.MaxQueue())
	lt.FlitHops += fp.Fabric.FlitsCarried
	lt.WormsDelivered += fp.Fabric.Delivered
	lt.WormsDropped += fp.Fabric.WormsDropped
	lt.HellosDeferred += fp.Fabric.HellosDeferred
	lt.WormsGenerated += fp.GeneratedWorms
	addStats(&lt.Adapter, fp.Adapter)
	return fp, nil
}

// rebuildTable recomputes the route scheme's table over the survivors
// after a remap, as sim.Run does.
func rebuildTable(cfg *sim.Config, ud *updown.Routing, tbl *updown.Table, nvc int,
	installAdaptive func(*updown.Routing) error) (*updown.Table, error) {
	switch cfg.Route {
	case "", "updown":
		return tbl, nil
	case "vcmin":
		return vcroute.TorusMinimalSurviving(cfg.Graph, cfg.TorusGeom, nvc, ud.Failures())
	case "fullmesh":
		return vcroute.FullMeshSurviving(cfg.Graph, ud.Failures())
	case "clos":
		return vcroute.Clos(cfg.Graph, cfg.ClosGeom, ud.Failures())
	case "shufflenet":
		return vcroute.Shufflenet(cfg.Graph, cfg.ShuffleGeom, nvc, ud.Failures())
	case "adaptive":
		if err := installAdaptive(ud); err != nil {
			return nil, err
		}
		return vcroute.Adaptive(cfg.Graph, ud)
	}
	return nil, fmt.Errorf("harness: unknown route scheme %q", cfg.Route)
}

func addStats(dst *adapter.Stats, s adapter.Stats) {
	dst.MulticastsSent += s.MulticastsSent
	dst.UnicastsSent += s.UnicastsSent
	dst.Nacks += s.Nacks
	dst.Retransmits += s.Retransmits
	dst.TimeoutRetransmits += s.TimeoutRetransmits
	dst.GiveUps += s.GiveUps
}

// classifier prices the kernel's run loop from Kernel.Observe, which fires
// after every dispatched event, inline tick pass and (once per skipped
// tick) fast-forward.  Each interval between two calls held exactly one of:
// a tick pass, a skip run, a discrete event, or a discrete event that
// re-mapped the network.  The deltas of the layers' own counters say which.
type classifier struct {
	rec    *recorder
	k      *des.Kernel
	fab    *network.Fabric
	inj    *fault.Injector
	point  string
	parent int

	last                     int64
	lastTicks, lastDispatch  int64
	lastSkipped, lastRemaps  int64
	tickNs, skipNs, eventNs  int64
	remapNs                  int64
	ticks, skipRuns, skipped int64
	events, remaps           int64
}

func (c *classifier) observe(des.Time) {
	ticks, disp := c.k.Ticks(), c.k.Dispatched()
	if ticks == c.lastTicks && disp == c.lastDispatch {
		// The kernel replays Observe once per skipped tick; the first call
		// already accounted the whole run.
		return
	}
	now := c.rec.now()
	d := now - c.last
	_, skipped := c.fab.SkipStats()
	switch {
	case skipped != c.lastSkipped:
		c.skipNs += d
		c.skipRuns++
		c.skipped += skipped - c.lastSkipped
		c.lastSkipped = skipped
	case ticks != c.lastTicks:
		c.tickNs += d
		c.ticks += ticks - c.lastTicks
	default:
		remaps := int64(0)
		if c.inj != nil {
			ctr := c.inj.Counters()
			remaps = ctr.Remaps + ctr.RemapFailures
		}
		if remaps != c.lastRemaps {
			c.rec.add(span{Parent: c.parent, Name: "fault.remap", Point: c.point, StartNs: c.last, EndNs: now})
			c.remapNs += d
			c.remaps += remaps - c.lastRemaps
			c.lastRemaps = remaps
		} else {
			c.eventNs += d
			c.events++
		}
	}
	c.last, c.lastTicks, c.lastDispatch = now, ticks, disp
}

// flush writes the point's aggregate spans and adds them to the workload.
func (c *classifier) flush(lt *layerTotals) {
	c.rec.aggregate("network.tick", c.point, c.parent, c.tickNs, c.ticks)
	c.rec.aggregate("network.skip", c.point, c.parent, c.skipNs, c.skipRuns)
	c.rec.aggregate("des.event", c.point, c.parent, c.eventNs, c.events)
	lt.TickNs += c.tickNs
	lt.SkipNs += c.skipNs
	lt.EventNs += c.eventNs
	lt.RemapNs += c.remapNs
	lt.Ticks += c.ticks
	lt.SkipRuns += c.skipRuns
	lt.SkippedTicks += c.skipped
	lt.Events += c.events
	lt.Remaps += c.remaps
}

// Bare-layer probes: one layer driven alone, so a change to it can be
// priced without the layers above.  Each runs for about probeFor.
const probeFor = 500 * time.Millisecond

// probeEventq times one Schedule+Pop+Free on a queue holding 64 events,
// the depth the torus runs sit at.
func probeEventq() float64 {
	var q eventq.Queue
	nop := func() {}
	t := int64(0)
	for i := 0; i < 64; i++ {
		q.Schedule(t+int64(i*7%97), nop)
	}
	start := time.Now()
	ops := 0
	for time.Since(start) < probeFor {
		for i := 0; i < 4096; i++ {
			e := q.Pop()
			t = e.Time
			q.Free(e)
			q.Schedule(t+1+int64(i%97), nop)
		}
		ops += 4096
	}
	return float64(time.Since(start)) / float64(ops)
}

type nullTicker struct{ left int64 }

func (n *nullTicker) Tick(des.Time) bool { n.left--; return n.left > 0 }

// probeNullTick times one kernel tick pass over a ticker that does nothing.
func probeNullTick() (float64, error) {
	const batch = 1 << 20
	start := time.Now()
	ticks := int64(0)
	for time.Since(start) < probeFor {
		k := des.NewKernel()
		k.Activate(&nullTicker{left: batch})
		if err := k.Run(0); err != nil {
			return 0, err
		}
		ticks += k.Ticks()
	}
	return float64(time.Since(start)) / float64(ticks), nil
}

// probeBareFabric times one flit-hop on the 8x8 torus with no adapter
// layer: every host injects a 400-byte worm to the host 27 places on, and
// the kernel runs until the fabric drains.
func probeBareFabric() (float64, error) {
	g := topology.Torus(8, 8, 1, 1)
	ud, err := updown.New(g, topology.None)
	if err != nil {
		return 0, err
	}
	table, err := ud.NewTable(false)
	if err != nil {
		return 0, err
	}
	k := des.NewKernel()
	var pool flit.WormPool
	fab, err := network.New(k, g, ud, network.Config{OnDeliver: func(d network.Delivery) { pool.Put(d.Worm) }})
	if err != nil {
		return 0, err
	}
	hosts := g.Hosts()
	headers := make([][]byte, len(hosts))
	for i, h := range hosts {
		headers[i], err = route.EncodeUnicast(table.Lookup(h, hosts[(i+27)%len(hosts)]).Ports)
		if err != nil {
			return 0, err
		}
	}
	var id int64
	start := time.Now()
	for time.Since(start) < probeFor {
		for i, h := range hosts {
			id++
			w := pool.Get()
			w.ID, w.Src, w.Dst = id, h, hosts[(i+27)%len(hosts)]
			w.Mode, w.Group = flit.Unicast, -1
			w.Header, w.PayloadLen = headers[i], 400
			if err := fab.Inject(h, w); err != nil {
				return 0, err
			}
		}
		if err := k.Run(0); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	ctr := fab.Counters()
	if ctr.Delivered != id {
		return 0, fmt.Errorf("bare fabric probe: delivered %d of %d worms", ctr.Delivered, id)
	}
	return float64(elapsed) / float64(ctr.FlitsCarried), nil
}

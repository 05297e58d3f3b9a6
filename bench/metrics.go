package main

// The metric registry: every name the benchmark prints, with its unit and
// direction.  BENCHMARK.json repeats these (and adds the regression bounds);
// the package test checks that the two agree.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Exact marks a metric that depends on nothing but the seed: a
	// simulated statistic or a work count.  -compare demands bit-equality
	// on these when both sides ran the same seed.
	Exact bool
}

var endToEndMetrics = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "flit_hops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "point_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "point_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "sim_latency_bt", Unit: "byte-times", Better: "lower", Exact: true},
	{Name: "sim_throughput_per_host", Unit: "B/bt/host", Better: "higher", Exact: true},
}

var perLayerMetrics = []metricDef{
	// Set-up spans: host time inside each layer's constructor, summed over
	// the traced points.
	{Name: "topology.build_ms", Unit: "ms", Better: "lower"},
	{Name: "updown.new_ms", Unit: "ms", Better: "lower"},
	{Name: "updown.table_ms", Unit: "ms", Better: "lower"},
	{Name: "updown.table_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "vcroute.build_ms", Unit: "ms", Better: "lower"},
	{Name: "vcroute.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "network.new_ms", Unit: "ms", Better: "lower"},
	{Name: "network.adaptive_table_ms", Unit: "ms", Better: "lower"},
	{Name: "multicast.groups_ms", Unit: "ms", Better: "lower"},
	{Name: "adapter.new_system_ms", Unit: "ms", Better: "lower"},
	{Name: "fault.new_injector_ms", Unit: "ms", Better: "lower"},
	{Name: "traffic.new_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.setup_self_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.collect_ms", Unit: "ms", Better: "lower"},

	// des / eventq.
	{Name: "des.run_ms", Unit: "ms", Better: "lower"},
	{Name: "des.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "des.ticks", Unit: "count", Better: "lower", Exact: true},
	{Name: "des.event_ms", Unit: "ms", Better: "lower"},
	{Name: "des.event_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "des.self_ms", Unit: "ms", Better: "lower"},
	{Name: "des.max_queue", Unit: "count", Better: "lower", Exact: true},

	// network.
	{Name: "network.tick_ms", Unit: "ms", Better: "lower"},
	{Name: "network.ticks_run", Unit: "count", Better: "lower", Exact: true},
	{Name: "network.ns_per_tick", Unit: "ns", Better: "lower"},
	{Name: "network.flit_hops", Unit: "count", Better: "lower", Exact: true},
	{Name: "network.ns_per_flit_hop", Unit: "ns", Better: "lower"},
	{Name: "network.skip_ms", Unit: "ms", Better: "lower"},
	{Name: "network.skip_runs", Unit: "count", Better: "higher", Exact: true},
	{Name: "network.skipped_ticks", Unit: "count", Better: "higher", Exact: true},
	{Name: "network.skip_engagement", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "network.worms_delivered", Unit: "count", Better: "higher", Exact: true},
	{Name: "network.worms_dropped", Unit: "count", Better: "lower", Exact: true},
	{Name: "network.hellos_deferred", Unit: "count", Better: "lower", Exact: true},

	// adapter / traffic.
	{Name: "adapter.send_ms", Unit: "ms", Better: "lower"},
	{Name: "adapter.sends", Unit: "count", Better: "lower", Exact: true},
	{Name: "adapter.nacks", Unit: "count", Better: "lower", Exact: true},
	{Name: "adapter.retransmits", Unit: "count", Better: "lower", Exact: true},
	{Name: "adapter.timeout_retransmits", Unit: "count", Better: "lower", Exact: true},
	{Name: "adapter.giveups", Unit: "count", Better: "lower", Exact: true},
	{Name: "adapter.retransmit_frac", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "traffic.worms_generated", Unit: "count", Better: "higher", Exact: true},

	// fault / liveness.
	{Name: "fault.remaps", Unit: "count", Better: "lower", Exact: true},
	{Name: "fault.remap_ms", Unit: "ms", Better: "lower"},
	{Name: "fault.remap_ms_per_remap", Unit: "ms", Better: "lower"},
	{Name: "liveness.verdicts_down", Unit: "count", Better: "lower", Exact: true},
	{Name: "liveness.false_positives", Unit: "count", Better: "lower", Exact: true},

	// sweep / runtime / the tracer itself.
	{Name: "sweep.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.mallocs", Unit: "count", Better: "lower"},
	{Name: "runtime.allocs_per_worm", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.fidelity_failures", Unit: "count", Better: "lower", Exact: true},

	// Bare-layer probes.
	{Name: "eventq.schedule_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "des.null_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "network.bare_ns_per_flit_hop", Unit: "ns", Better: "lower"},
}

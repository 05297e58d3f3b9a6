// Command wormsim runs a single wormhole-LAN simulation and prints its
// measurements: the building block behind cmd/mcbench for exploring
// parameter points the paper did not sweep.
//
// Example:
//
//	wormsim -topology torus8x8 -scheme tree -load 0.03 -pmc 0.1 \
//	        -groups 10 -groupsize 10 -measure 400000
//
// Observability:
//
//	wormsim -trace out.json -metrics   # Perfetto trace + fabric metrics
//	wormsim -pprof localhost:6060      # live pprof/expvar while running
//
// Open the trace at https://ui.perfetto.dev or chrome://tracing.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"

	"wormlan/internal/adapter"
	"wormlan/internal/des"
	"wormlan/internal/fault"
	"wormlan/internal/liveness"
	"wormlan/internal/network"
	"wormlan/internal/profiling"
	"wormlan/internal/sim"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
)

// loadConfigFile reads a topology+groups configuration file (the format of
// the paper's simulator; see topology.ParseConfig).
func loadConfigFile(path string) (*topology.Graph, map[int][]topology.NodeID, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return topology.ParseConfig(f)
}

func pickScheme(name string) (sim.Scheme, error) {
	for _, s := range []sim.Scheme{sim.HamiltonianSF, sim.HamiltonianCT,
		sim.TreeSF, sim.TreeCT, sim.TreeFlood, sim.SwitchFabric} {
		if s.Name == name {
			return s, nil
		}
	}
	return sim.Scheme{}, fmt.Errorf("unknown scheme %q (try hamiltonian, hamiltonian-cut-thru, tree, tree-cut-thru, tree-flood, switch-fabric)", name)
}

// traceRingCap bounds in-memory trace recording: the newest ~4M events are
// kept, which covers any single figure point at full scale.
const traceRingCap = 1 << 22

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wormsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	configPath := fs.String("config", "", "topology+groups configuration file (overrides -topology/-groups)")
	topoName := fs.String("topology", "torus8x8", "topology: torus8x8, torus4x4, shufflenet24, shufflenet64, clos8x4, myrinet4, fullmesh8x4, fullmesh8x8, star:N, line:N, ring:N")
	schemeName := fs.String("scheme", "tree", "multicast scheme")
	load := fs.Float64("load", 0.02, "offered load (generated output-link utilization per host)")
	pmc := fs.Float64("pmc", 0.1, "probability a generated worm is multicast")
	groups := fs.Int("groups", 10, "number of multicast groups")
	groupSize := fs.Int("groupsize", 10, "members per group")
	meanWorm := fs.Int("meanworm", 400, "mean worm length in bytes")
	warmup := fs.Int64("warmup", 50_000, "warm-up byte-times (discarded)")
	measure := fs.Int64("measure", 300_000, "measurement window in byte-times")
	linkDelay := fs.Int64("delay", 0, "inter-switch link delay in byte-times (0 = topology default)")
	seed := fs.Uint64("seed", 1996, "random seed")
	routeName := fs.String("route", "", "routing scheme: updown (default), vcmin (dateline minimal, torus only), adaptive (escape-lane, any topology), fullmesh, clos, or shufflenet")
	vcs := fs.Int("vcs", 0, "virtual channels (lanes) per physical link (0 = fabric default)")
	arbName := fs.String("arb", "", "crossbar arbitration: scan (default) or islip")
	arbIters := fs.Int("arb-iters", 0, "iSLIP iterations per tick (0 = arbiter default)")
	ordered := fs.Bool("ordered", false, "total ordering via the lowest-ID serializer")
	reliable := fs.Bool("reliable", false, "use the full ACK/NACK reservation protocol instead of the paper's plain-forwarding simulation mode")
	failLinks := fs.Int("fail-links", 0, "kill N random switch-to-switch cables during the run")
	failSwitches := fs.Int("fail-switches", 0, "crash N random switches during the run")
	failAt := fs.Int64("fail-at", 0, "fault times are drawn uniformly over [1,T] byte-times (default warmup + measure/2)")
	failHeal := fs.Int64("fail-heal", 0, "revive each failed element D byte-times after it fails (0 = permanent)")
	failSeed := fs.Uint64("fail-seed", 0, "fault schedule seed (default: -seed)")
	detect := fs.String("detect", "oracle", "failure detection: oracle (injector triggers recovery) or hello (in-band liveness protocol)")
	helloInterval := fs.Int64("hello-interval", 0, "hello transmission period in byte-times (0 = liveness default)")
	detectMult := fs.Int("detect-mult", 0, "consecutive missed hellos before a peer-down verdict (0 = liveness default)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event (Perfetto) JSON of the run to this file")
	metrics := fs.Bool("metrics", false, "collect and print per-channel utilization, crossbar occupancy, and latency histograms")
	startProfiles := profiling.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Reject a bad -route, -vcs or -arb-iters before any work, with the full
	// legal set in the error — the same checks (and messages) sim.Run would
	// apply, shared with mcbench so both CLIs fail identically.
	early := sim.Config{Route: *routeName}
	early.Network.NumVCs, early.Network.ArbIters = *vcs, *arbIters
	if err := early.Validate(); err != nil {
		return fail(stderr, 2, err)
	}
	var net topology.Net
	var fileGroups map[int][]topology.NodeID
	var err error
	if *configPath != "" {
		net.Graph, fileGroups, err = loadConfigFile(*configPath)
	} else {
		net, err = topology.Named(*topoName, *linkDelay)
	}
	if err != nil {
		return fail(stderr, 2, err)
	}
	scheme, err := pickScheme(*schemeName)
	if err != nil {
		return fail(stderr, 2, err)
	}
	mode, err := fault.ParseDetectMode(*detect)
	if err != nil {
		return fail(stderr, 2, err)
	}
	arb, err := network.ParseArb(*arbName)
	if err != nil {
		return fail(stderr, 2, err)
	}
	stopProfiles, err := startProfiles(stderr)
	if err != nil {
		return fail(stderr, 2, err)
	}
	defer stopProfiles()

	cfg := sim.Config{
		Graph:         net.Graph,
		Scheme:        scheme,
		TotalOrdering: *ordered,
		OfferedLoad:   *load,
		MulticastProb: *pmc,
		MeanWorm:      *meanWorm,
		NumGroups:     *groups,
		GroupSize:     *groupSize,
		Groups:        fileGroups,
		Warmup:        des.Time(*warmup),
		Measure:       des.Time(*measure),
		Seed:          *seed,
		Route:         *routeName,
		TorusGeom:     net.Torus,
		ClosGeom:      net.Clos,
		ShuffleGeom:   net.Shuffle,
		Adapter:       adapter.Config{PlainForwarding: !*reliable},
		Detect:        mode,
		Metrics:       *metrics,
	}
	cfg.Network.NumVCs = *vcs
	cfg.Network.Arb, cfg.Network.ArbIters = arb, *arbIters
	if *failLinks > 0 || *failSwitches > 0 {
		cfg.FaultPlan = fault.RandomPlan(net.Graph, fault.Options{
			Seed:        cmp.Or(*failSeed, *seed),
			LinkDowns:   *failLinks,
			SwitchDowns: *failSwitches,
			Window:      des.Time(cmp.Or(*failAt, *warmup+*measure/2)),
			Heal:        des.Time(*failHeal),
		})
	}
	if mode == fault.DetectHello && (*helloInterval > 0 || *detectMult > 0) {
		cfg.Liveness = &liveness.Config{
			Interval:   des.Time(*helloInterval),
			DetectMult: *detectMult,
		}
	}
	return simulate(cfg, *tracePath, stdout, stderr)
}

// fail reports err and returns the exit code.
func fail(stderr io.Writer, code int, err error) int {
	fmt.Fprintf(stderr, "wormsim: %v\n", err)
	return code
}

// simulate runs cfg, prints the results and, when tracePath is set, records
// and exports the run's trace.  A failed or unhealthy run exits 1 unprinted.
func simulate(cfg sim.Config, tracePath string, stdout, stderr io.Writer) int {
	var ring *trace.Ring
	if tracePath != "" {
		ring = trace.NewRing(traceRingCap)
		cfg.Tracer = ring
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return fail(stderr, 1, err)
	}
	verdict := res.Healthy()
	report := stderr // an unhealthy run still exports its trace, its diagnosis
	if verdict == nil {
		printResults(stdout, res, cfg.FaultPlan != nil, cfg.Metrics)
		report = stdout
	}
	if ring != nil {
		if err := writeTrace(report, tracePath, ring); err != nil {
			return fail(stderr, 1, err)
		}
	}
	if verdict != nil {
		return fail(stderr, 1, fmt.Errorf("%s load %v: %w", cfg.Scheme.Name, cfg.OfferedLoad, verdict))
	}
	return 0
}

// printResults writes the run's result row and counter dumps; metrics adds
// the kernel statistics, latency histograms and fabric metrics summary.
func printResults(stdout io.Writer, res *sim.Results, faults, metrics bool) {
	fmt.Fprintln(stdout, res)
	fmt.Fprintf(stdout, "multicast latency: mean=%.0f std=%.0f min=%.0f max=%.0f (n=%d)\n",
		res.MCLatency.Mean(), res.MCLatency.Std(), res.MCLatency.Min(), res.MCLatency.Max(), res.MCLatency.N())
	fmt.Fprintf(stdout, "unicast latency:   mean=%.0f std=%.0f (n=%d)\n",
		res.UniLatency.Mean(), res.UniLatency.Std(), res.UniLatency.N())
	fmt.Fprintf(stdout, "generated worms:   %d (%d multicast)\n", res.GeneratedWorms, res.GeneratedMC)
	fmt.Fprintf(stdout, "adapter stats:     %+v\n", res.Adapter)
	fmt.Fprintf(stdout, "fabric counters:   %+v\n", res.Fabric)
	if faults {
		fmt.Fprintf(stdout, "fault counters:    %+v\n", res.Fault)
	}
	if d := res.Detection; d != nil {
		fmt.Fprintf(stdout, "detection:         %+v\n", d.Liveness)
		fmt.Fprintf(stdout, "detection remaps:  %d\n", d.Remaps)
		if metrics {
			fmt.Fprintf(stdout, "%s\n", &d.DetectToReroute)
			fmt.Fprintf(stdout, "%s\n", &d.FaultToDetect)
		}
	}
	if metrics {
		fmt.Fprintf(stdout, "kernel:            %d events dispatched, peak queue %d, %.2f events/tick\n",
			res.EventsDispatched, res.MaxQueueDepth, res.EventsPerTick)
		if h := res.Histograms; h != nil {
			for _, hist := range []*trace.Histogram{&h.MC, &h.Uni, &h.All, &h.Queue} {
				fmt.Fprintf(stdout, "%s\n", hist)
			}
		}
		if m := res.Metrics(); m != nil {
			m.WriteSummary(stdout, 10, int64(res.EndTime))
		}
	}
}

// writeTrace exports the recorded events as Chrome trace-event JSON and
// prints the trace summary line to w.
func writeTrace(w io.Writer, path string, ring *trace.Ring) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, ring.Events()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace:             %d events -> %s", ring.Total(), path)
	if d := ring.Dropped(); d > 0 {
		fmt.Fprintf(w, " (oldest %d dropped by the %d-event ring)", d, traceRingCap)
	}
	fmt.Fprintln(w)
	return nil
}

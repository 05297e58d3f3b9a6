// Command mcbench regenerates every figure of the paper's evaluation
// (Figures 10-13) and the DESIGN.md ablations.
//
// Usage:
//
//	mcbench -fig 10              # one figure (10, 11, 12, 13, ablations)
//	mcbench -fig all             # everything
//	mcbench -scale full          # full DESIGN.md grids (minutes)
//	mcbench -fig all -parallel 8 # fan simulation points across 8 workers
//	mcbench -fig all -cache /tmp/mc  # memoize points; re-runs are incremental
//
// Simulation figures (10, 11, ablations) are sweeps of independent
// deterministic points: -parallel changes wall-clock time only, never the
// rows (each point derives its own seed from its identity).  Figures 12
// and 13 are two read-outs of one run of the prototype-card queueing model
// (internal/emu): sixteen deterministic points that take milliseconds, so
// they run in-line — no workers, no cache — and print the same bytes
// every time.
//
// Exit status: 0 on success, 1 if any figure fails mid-run, 2 on usage
// errors (unknown figure or scale).
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"strings"
	"time"

	"wormlan/internal/core"
	"wormlan/internal/des"
	"wormlan/internal/faulttest"
	"wormlan/internal/network"
	"wormlan/internal/profiling"
	"wormlan/internal/sweep"
	"wormlan/internal/trace"
	"wormlan/internal/vcroute"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// validFigs is the legal -fig set, sorted; the flag help and the usage
// error are both built from it.  storms and routes are opt-in (not part of
// "all"): the chaos matrix with the selected failure-detection mode in the
// recovery loop, and the routing-scheme comparison (not a figure from the
// paper).
var validFigs = []string{"10", "11", "12", "13", "ablations", "all", "routes", "storms"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: "+strings.Join(validFigs, ", "))
	scaleFlag := fs.String("scale", "quick", "experiment scale: quick or full")
	seed := fs.Uint64("seed", 1996, "random seed")
	parallel := fs.Int("parallel", 0, "simulation points run concurrently (0 = GOMAXPROCS, 1 = sequential)")
	cacheDir := fs.String("cache", "", "memoize completed sweep points in this directory")
	timeout := fs.Duration("timeout", 0, "per-point wall-clock timeout (0 = none)")
	progress := fs.Bool("progress", false, "stream per-point completions to stderr")
	metrics := fs.Bool("metrics", false, "print per-figure sweep execution metrics (points run/cached, per-point time distribution)")
	vcs := fs.Int("vcs", 0, "virtual-channel lane count: fabric lanes for -fig 10, multi-VC curve lanes for -fig routes (0 = defaults)")
	routeFilter := fs.String("route", "", "restrict -fig routes to curves of this routing scheme (empty = all)")
	detect := fs.String("detect", "oracle", "storm failure detection: oracle or hello (in-band liveness; -fig storms)")
	helloInterval := fs.Int64("hello-interval", 0, "hello transmission period in byte-times for -detect hello (0 = liveness default)")
	detectMult := fs.Int("detect-mult", 0, "consecutive missed hellos before a peer-down verdict (0 = liveness default)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Reject a bad -route before any work, with the full legal set in the
	// error — the registry lookup sim.Run itself makes, so wormsim and
	// mcbench fail identically.
	filter, err := vcroute.Lookup(*routeFilter)
	if err != nil {
		fmt.Fprintf(stderr, "mcbench: %v\n", err)
		return 2
	}
	if err := (&network.Config{NumVCs: *vcs}).Validate(); err != nil {
		fmt.Fprintf(stderr, "mcbench: %v\n", err)
		return 2
	}

	if *cpuProfile != "" {
		stop, err := profiling.StartCPU(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "mcbench: %v\n", err)
			return 2
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := profiling.WriteAllocs(*memProfile); err != nil {
				fmt.Fprintf(stderr, "mcbench: %v\n", err)
			}
		}()
	}

	if *pprofAddr != "" {
		expvar.NewString("cmd").Set("mcbench")
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(stderr, "mcbench: pprof server: %v\n", err)
			}
		}()
	}

	scale := core.Quick
	switch *scaleFlag {
	case "quick":
	case "full":
		scale = core.Full
	default:
		fmt.Fprintf(stderr, "mcbench: unknown scale %q (want quick or full)\n", *scaleFlag)
		return 2
	}
	if !slices.Contains(validFigs, *fig) {
		fmt.Fprintf(stderr, "mcbench: unknown figure %q (want %s)\n", *fig, strings.Join(validFigs, ", "))
		return 2
	}

	// One sweep accounting block shared by every figure of this
	// invocation: a per-figure tally of points run/cached and per-point
	// execution times feeds the wall-clock report (and, under -metrics,
	// the execution-time distribution).
	tally := sweep.NewTally()
	opts := core.Options{
		Workers:  *parallel,
		CacheDir: *cacheDir,
		Timeout:  *timeout,
		OnProgress: tally.Hook(func(p sweep.Progress) {
			if *progress {
				state := "ran"
				if p.CacheHit {
					state = "cached"
				}
				fmt.Fprintf(stderr, "  %s %d/%d %s (%s, %v)\n",
					p.Grid, p.Done, p.Total, p.Key[:12], state, p.Elapsed.Round(time.Millisecond))
			}
		}),
	}

	failed := false
	runFig := func(name string, f func() error) {
		if failed {
			return
		}
		*tally = *sweep.NewTally()
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(stderr, "mcbench: %s: %v\n", name, err)
			failed = true
			return
		}
		fmt.Fprintf(stdout, "  [%s: %d points (%d cached) in %v]\n",
			name, tally.Ran+tally.Cached, tally.Cached, time.Since(start).Round(time.Millisecond))
		if *metrics {
			tally.WriteSummary(stdout)
		}
		fmt.Fprintln(stdout)
	}

	ctx := context.Background()
	want := func(f string) bool { return *fig == "all" || *fig == f }

	if want("10") {
		runFig("fig10", func() error {
			rows, err := core.Fig10VCsWith(ctx, scale, *seed, opts, *vcs)
			if err != nil {
				return err
			}
			core.PrintFig10(stdout, rows)
			return nil
		})
	}
	if want("11") {
		runFig("fig11", func() error {
			rows, err := core.Fig11With(ctx, scale, *seed, opts)
			if err != nil {
				return err
			}
			core.PrintFig11(stdout, rows)
			return nil
		})
	}
	if want("12") || want("13") {
		runFig("fig12+13", func() error {
			single, all := core.Fig12And13(scale)
			core.PrintFig12And13(stdout, single, all)
			return nil
		})
	}
	if *fig == "routes" {
		runFig("routes", func() error {
			variants := core.VariantsWithVCs(*vcs)
			if *routeFilter != "" {
				kept := variants[:0]
				for _, v := range variants {
					// A curve whose route is unknown fails in sim.Run;
					// its zero Scheme matches no filter.
					if sch, _ := vcroute.Lookup(v.Route); sch.Name == filter.Name {
						kept = append(kept, v)
					}
				}
				variants = kept
			}
			rows, err := core.RoutesWithVariants(ctx, scale, *seed, opts, variants)
			if err != nil {
				return err
			}
			core.PrintRoutes(stdout, rows)
			return nil
		})
	}
	if *fig == "storms" {
		start := time.Now()
		if err := runStorms(ctx, stdout, *detect, *helloInterval, *detectMult, *seed, *parallel, *metrics); err != nil {
			fmt.Fprintf(stderr, "mcbench: storms: %v\n", err)
			failed = true
		} else {
			fmt.Fprintf(stdout, "  [storms in %v]\n", time.Since(start).Round(time.Millisecond))
		}
	}
	if want("ablations") {
		runFig("ablations", func() error {
			bc, err := core.AblationBufferClassesWith(ctx, *seed, opts)
			if err != nil {
				return err
			}
			core.PrintBufferClasses(stdout, bc)
			or, err := core.AblationOrderingWith(ctx, *seed, opts)
			if err != nil {
				return err
			}
			core.PrintOrdering(stdout, or)
			tc, err := core.AblationTreeConstruction(*seed)
			if err != nil {
				return err
			}
			core.PrintTreeConstruction(stdout, tc)
			rt, err := core.AblationRouting()
			if err != nil {
				return err
			}
			core.PrintRouting(stdout, rt)
			fa, err := core.AblationFabricVsAdapterWith(ctx, *seed, opts)
			if err != nil {
				return err
			}
			core.PrintFabricVsAdapter(stdout, fa)
			bs, err := core.BufferOccupancyStudyWith(ctx, *seed, []float64{0.01, 0.02, 0.04, 0.06}, opts)
			if err != nil {
				return err
			}
			core.PrintBufferStudy(stdout, bs)
			return nil
		})
	}
	if failed {
		return 1
	}
	return 0
}

// runStorms executes the chaos storm matrix with the selected detection
// mode and prints one summary row per storm.  Under hello detection the
// per-storm liveness statistics follow each row, and -metrics adds the
// matrix-wide detection-latency histograms (merged across storms).
func runStorms(ctx context.Context, stdout io.Writer, detect string, helloInterval int64, detectMult int, seed uint64, parallel int, metrics bool) error {
	var specs []faulttest.StormSpec
	switch detect {
	case "", "oracle":
		specs = faulttest.DefaultStormMatrix()
	case "hello":
		specs = faulttest.DetectionStormMatrix()
		for i := range specs {
			specs[i].HelloInterval = des.Time(helloInterval)
			specs[i].DetectMult = detectMult
		}
	default:
		return fmt.Errorf("unknown detection mode %q (want oracle or hello)", detect)
	}
	outcomes, err := sweep.Run(ctx, &sweep.Engine{Workers: parallel}, faulttest.StormGrid(specs, seed))
	if err != nil {
		return err
	}
	var d2r, f2d trace.Histogram
	for i, o := range outcomes {
		fmt.Fprintf(stdout, "%-24s injected=%d delivered=%d dropped=%d remaps=%d uni=%d mc=%d\n",
			specs[i].Name, o.Fabric.Injected, o.Fabric.Delivered, o.Fabric.WormsDropped,
			o.Inject.Remaps, o.Uni, o.McSum)
		if detect == "hello" {
			l := o.Detection.Liveness
			fmt.Fprintf(stdout, "%-24s downs=%d ups=%d falsePos=%d flaps=%d suppressed=%d detectionRemaps=%d\n",
				"", l.PeerDowns, l.PeerUps, l.FalsePositives, l.Flaps, l.FlapsSuppressed, o.Detection.Remaps)
			d2r.Merge(&o.Detection.DetectToReroute)
			f2d.Merge(&o.Detection.FaultToDetect)
		}
	}
	if detect == "hello" && metrics {
		d2r.Name, f2d.Name = "detect-to-reroute", "fault-to-detect"
		fmt.Fprintf(stdout, "%s\n%s\n", &d2r, &f2d)
	}
	return nil
}

// Command bench is wormbench, the repository's performance benchmark: five
// named workloads, nine end-to-end metrics measured with tracing off, and a
// traced pass that prices every layer.  See README.md beside this file.
//
//	go run ./bench -seed 1996                  full report, both passes
//	go run ./bench -workload W -seconds 10 -trace 0|1
//	                                           one timed run; the last line of
//	                                           standard output is its result
//	go run ./bench -compare a.json b.json      A/B two -out files
//	go run ./bench -update-golden              rewrite bench/golden.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadReport is one workload's row of a report.
type workloadReport struct {
	Name string `json:"name"`
	// Sample counts: laps of the untraced pass (ops_attempted is its
	// points), points of the traced pass, points checked against golden.json.
	Laps          int `json:"laps"`
	TracedPoints  int `json:"traced_points"`
	GoldenChecked int `json:"golden_checked"`

	OpsAttempted     int `json:"ops_attempted"`
	OpsFailed        int `json:"ops_failed"`
	FingerprintDrift int `json:"fingerprint_drift"`

	EndToEnd map[string]value `json:"end_to_end,omitempty"`
	PerLayer map[string]value `json:"per_layer,omitempty"`
}

// header records what a reader needs to trust a number.
type header struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	GOGC       string   `json:"gogc"`
	CPUModel   string   `json:"cpu_model"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Workloads  []string `json:"workloads"`
	SetupReps  int      `json:"setup_probe_reps"`
}

type report struct {
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

// driverResult is the last line of a -workload run.
type driverResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options are the command's flags.
type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      int
	out        string
	traceOut   string
	update     bool
	goldenPath string
	compare    bool
	benchmark  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result as the last line (default: all five)")
	flag.Uint64Var(&o.seed, "seed", goldenSeed, "base seed; every point's seed derives from it")
	flag.Float64Var(&o.seconds, "seconds", 0, "time budget per workload; 0 runs each table's full lap count")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
	flag.StringVar(&o.out, "out", "", "write the report as JSON to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans as JSON to this file")
	flag.BoolVar(&o.update, "update-golden", false, "rewrite the golden fingerprints at seed 1996 and exit")
	flag.StringVar(&o.goldenPath, "golden", "bench/golden.json", "file -update-golden writes")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: bench -compare a.json b.json")
	flag.StringVar(&o.benchmark, "benchmark", "BENCHMARK.json", "file -compare reads the regression bounds from")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "wormbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two report files")
		}
		return compareReports(os.Stdout, flag.Arg(0), flag.Arg(1), o.benchmark)
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	// WORMTRACE silently turns every sim.Run into a traced, metrics-on run,
	// and the race detector slows everything several-fold: either would be
	// measured as if it were the simulator.
	if os.Getenv("WORMTRACE") != "" {
		return fmt.Errorf("WORMTRACE is set; unset it, it makes sim.Run record a trace")
	}
	if raceEnabled {
		return fmt.Errorf("built with -race; timings would be meaningless")
	}
	if o.trace < -1 || o.trace > 1 {
		return fmt.Errorf("-trace wants 0 or 1")
	}

	ws := workloads()
	if o.update {
		return updateGolden(o.goldenPath, ws)
	}
	if o.workload != "" {
		var one []workload
		for _, w := range ws {
			if w.Name == o.workload {
				one = append(one, w)
			}
		}
		if len(one) == 0 {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		ws = one
	}
	gold, err := loadGolden(o.seed)
	if err != nil {
		return err
	}

	rep := report{Header: newHeader(o.seed, o.seconds, ws)}
	printHeader(rep.Header)
	rec := newRecorder()
	var pr probes
	if o.trace != 0 {
		if pr, err = runProbes(); err != nil {
			return err
		}
	}
	correct := true
	for _, w := range ws {
		wr, ok, err := runWorkload(w, o.seed, o.seconds, o.trace, gold, rec, pr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		correct = correct && ok
		rep.Workloads = append(rep.Workloads, wr)
		printWorkload(wr)
	}
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, rec); err != nil {
			return err
		}
	}
	if o.out != "" {
		blob, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.workload != "" {
		wr := rep.Workloads[0]
		res := driverResult{Correct: correct, Attempted: wr.OpsAttempted, Failed: wr.OpsFailed, Metrics: wr.EndToEnd}
		if o.trace == 1 {
			res.Metrics = wr.PerLayer
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// runWorkload runs one workload's passes.  ok is false when a point failed
// or the harness disagreed with sim.Run; fingerprint drift is reported
// loudly but does not clear ok, so a deliberate model fix is not rejected
// by the check that exists to catch accidental ones.
func runWorkload(w workload, seed uint64, seconds float64, traceMode int, gold map[string]string,
	rec *recorder, pr probes) (workloadReport, bool, error) {
	if traceMode == 1 {
		// Only lap 0 is traced, and no end-to-end metric is reported.
		w.Laps, seconds = 1, 0
	}
	u, err := runUntraced(w, seed, seconds, gold)
	if err != nil {
		return workloadReport{}, false, err
	}
	wr := workloadReport{Name: w.Name, Laps: len(u.Laps), GoldenChecked: u.Checked,
		OpsAttempted: u.attempted(), OpsFailed: len(u.Failed), FingerprintDrift: len(u.Drift)}
	for _, f := range u.Failed {
		fmt.Fprintln(os.Stderr, "FAILED", f)
	}
	if len(u.Drift) > 0 {
		fmt.Fprintf(os.Stderr, "\n*** FINGERPRINT DRIFT: %s: %d of %d points differ from bench/golden.json ***\n"+
			"*** the simulation's behaviour changed; a perf-only change must show 0 ***\n", w.Name, len(u.Drift), u.Checked)
		for _, d := range u.Drift {
			fmt.Fprintln(os.Stderr, "   ", d)
		}
	}
	ok := len(u.Failed) == 0
	if traceMode != 1 {
		if u.SetupS, err = probeSetup(w, seed); err != nil {
			return wr, false, err
		}
		wr.EndToEnd = withUnits(u.endToEnd(), endToEndMetrics)
	}
	if traceMode != 0 {
		t, err := runTraced(rec, w, seed, u.Laps[0])
		if err != nil {
			return wr, false, err
		}
		for _, f := range t.Fidelity {
			fmt.Fprintln(os.Stderr, "FIDELITY", f)
		}
		ok = ok && len(t.Fidelity) == 0
		wr.TracedPoints = t.Totals.Points
		wr.PerLayer = withUnits(perLayer(u, t, pr), perLayerMetrics)
	}
	return wr, ok, nil
}

func withUnits(m map[string]float64, defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

func newHeader(seed uint64, seconds float64, ws []workload) header {
	h := header{
		Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GOGC: os.Getenv("GOGC"), CPUModel: cpuModel(),
		Seed: seed, Seconds: seconds, SetupReps: setupProbeReps,
	}
	if h.GOGC == "" {
		h.GOGC = "100 (default)"
	}
	for _, w := range ws {
		h.Workloads = append(h.Workloads, w.Name)
	}
	return h
}

// commit asks git for HEAD, marking a modified tree; "unknown" outside a
// repository (the benchmark driver's checkout is not one).
func commit() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func printHeader(h header) {
	fmt.Printf("wormbench  commit %s  %s  GOMAXPROCS %d  nproc %d  GOGC %s\n",
		h.Commit, h.GoVersion, h.GOMAXPROCS, h.NProc, h.GOGC)
	fmt.Printf("cpu %s\nseed %d  seconds %g  set-up probe reps %d  workloads %s\n",
		h.CPUModel, h.Seed, h.Seconds, h.SetupReps, strings.Join(h.Workloads, ", "))
}

func printWorkload(wr workloadReport) {
	fmt.Printf("\n== %s: %d laps (%d points traced, %d golden-checked)  ops_attempted %d  ops_failed %d  fingerprint_drift %d\n",
		wr.Name, wr.Laps, wr.TracedPoints, wr.GoldenChecked, wr.OpsAttempted, wr.OpsFailed, wr.FingerprintDrift)
	printMetrics(wr.EndToEnd, endToEndMetrics)
	printMetrics(wr.PerLayer, perLayerMetrics)
}

func printMetrics(m map[string]value, defs []metricDef) {
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			fmt.Printf("  %-32s %16.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// miniWorkloads is the test-only reduced point table: every route variant,
// every adapter scheme and both detection modes at windows short enough for
// tier-1, split into a plain and a faulted workload like the real tables.
func miniWorkloads() (plain, faulted workload) {
	plain = workload{Name: "mini-plain", Laps: 1}
	for _, v := range routeVariants {
		plain.Cells = append(plain.Cells, routeCell(v, 0.08, 2_000, 12_000))
	}
	for _, s := range []string{"hamiltonian", "hamiltonian-cut-thru", "tree", "tree-cut-thru", "tree-flood"} {
		plain.Cells = append(plain.Cells, fig10Cell(s, 0.03, 2_000, 12_000))
	}
	// A long-pipe cell, so fast-forward engages and the classifier sees
	// skip runs as well as tick passes.
	plain.Cells = append(plain.Cells, cell{Topo: "shufflenet24", Adapter: "plain", Scheme: "tree-flood",
		Load: 0.01, MCProb: 0.2, Groups: 4, GroupSz: 6, Warmup: 2_000, Measure: 60_000})

	faulted = workload{Name: "mini-faulted", Laps: 1}
	for _, detect := range []string{"", "hello"} {
		c := faultCell("shufflenet24", "hamiltonian-cut-thru", detect)
		c.Warmup, c.Measure, c.Drain = 5_000, 80_000, 80_000
		faulted.Cells = append(faulted.Cells, c)
	}
	return plain, faulted
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func checkMetrics(t *testing.T, got map[string]value, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("got %d metrics, registry has %d", len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case !metricName.MatchString(d.Name):
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v, want finite", d.Name, v.Value)
		case v.Unit != d.Unit:
			t.Errorf("metric %s unit %q, want %q", d.Name, v.Unit, d.Unit)
		case nonZero && v.Value == 0:
			t.Errorf("end-to-end metric %s is zero", d.Name)
		}
	}
}

// TestPassesOnMiniTables runs both passes over the reduced tables and checks
// what the issue promises of every run: all metrics present and finite, the
// harness indistinguishable from sim.Run, the classifier's counts equal to
// the layers' own, and protocol counters silent on plain workloads.
func TestPassesOnMiniTables(t *testing.T) {
	plain, faulted := miniWorkloads()
	pr, err := runProbes()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []workload{plain, faulted} {
		rec := newRecorder()
		u, err := runUntraced(w, 7, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(u.Failed) != 0 {
			t.Fatalf("%s: failed points: %v", w.Name, u.Failed)
		}
		if testing.Short() {
			// 20 zero-window runs per set-up class are most of this test's
			// time under -race; the full suite runs them.
			u.SetupS = 1
		} else if u.SetupS, err = probeSetup(w, 7); err != nil {
			t.Fatal(err)
		}
		tr, err := runTraced(rec, w, 7, u.Laps[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Fidelity) != 0 {
			t.Errorf("%s: harness differs from sim.Run:\n%s", w.Name, strings.Join(tr.Fidelity, "\n"))
		}
		checkMetrics(t, withUnits(u.endToEnd(), endToEndMetrics), endToEndMetrics, true)
		layers := perLayer(u, tr, pr)
		checkMetrics(t, withUnits(layers, perLayerMetrics), perLayerMetrics, false)

		lt := tr.Totals
		if lt.Points != w.pointsPerLap() {
			t.Errorf("%s: traced %d points, lap has %d", w.Name, lt.Points, w.pointsPerLap())
		}
		if lt.Ticks+lt.SkippedTicks != lt.KernelTicks {
			t.Errorf("%s: classifier saw %d tick passes + %d skipped ticks, Kernel.Ticks() = %d",
				w.Name, lt.Ticks, lt.SkippedTicks, lt.KernelTicks)
		}
		if lt.SkipRuns != lt.FabricSkips || lt.SkippedTicks != lt.FabricSkippedTicks {
			t.Errorf("%s: classifier saw %d skip runs over %d ticks, Fabric.SkipStats() = (%d, %d)",
				w.Name, lt.SkipRuns, lt.SkippedTicks, lt.FabricSkips, lt.FabricSkippedTicks)
		}
		if lt.Ticks+lt.SkippedTicks+lt.Events+lt.Remaps != lt.KernelDispatched {
			t.Errorf("%s: classified %d intervals, Kernel.Dispatched() = %d",
				w.Name, lt.Ticks+lt.SkippedTicks+lt.Events+lt.Remaps, lt.KernelDispatched)
		}
		if lt.Sends != lt.WormsGenerated {
			t.Errorf("%s: timed %d sends, generator made %d worms", w.Name, lt.Sends, lt.WormsGenerated)
		}
		spans := 0
		for _, s := range rec.spans {
			if s.Name == "point" {
				spans++
			}
			if s.EndNs < s.StartNs {
				t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
			}
		}
		if spans != lt.Points {
			t.Errorf("%s: %d root spans for %d points", w.Name, spans, lt.Points)
		}

		if w.Name == plain.Name {
			if lt.SkippedTicks == 0 {
				t.Errorf("%s: fast-forward never engaged; the skip class is untested", w.Name)
			}
			for _, name := range []string{"adapter.nacks", "adapter.retransmits", "adapter.timeout_retransmits",
				"adapter.giveups", "fault.remaps", "fault.remap_ms", "network.worms_dropped"} {
				if layers[name] != 0 {
					t.Errorf("%s: %s = %v on a plain workload, want 0", w.Name, name, layers[name])
				}
			}
		} else if layers["fault.remaps"] == 0 || layers["fault.remap_ms"] == 0 {
			t.Errorf("%s: no remap was seen (remaps %v, %v ms); the remap class is untested",
				w.Name, layers["fault.remaps"], layers["fault.remap_ms"])
		}
	}
}

func TestInvariantChecker(t *testing.T) {
	ok := fingerprint{Drained: true}
	ok.Fabric.Injected, ok.Fabric.Delivered, ok.Fabric.WormsDropped = 10, 8, 2
	if f := ok.invariantFailure(); f != "" {
		t.Errorf("healthy point reported %q", f)
	}
	lost := ok
	lost.Fabric.Delivered = 7
	held := ok
	held.HeldChannels = 1
	stalled := ok
	stalled.Stalled = true
	for name, fp := range map[string]fingerprint{"lost worm": lost, "held channel": held, "stalled": stalled} {
		if fp.invariantFailure() == "" {
			t.Errorf("%s not reported", name)
		}
		if fp.hash() == ok.hash() {
			t.Errorf("%s does not change the fingerprint", name)
		}
	}
	// A run cut off at its deadline may have worms in flight.
	lost.Drained = false
	if f := lost.invariantFailure(); f != "" {
		t.Errorf("undrained point reported %q", f)
	}
}

// TestGoldenCoversTables keeps golden.json in step with workloads.go: every
// point of every full table has a fingerprint, and nothing else does.
func TestGoldenCoversTables(t *testing.T) {
	gold, err := loadGolden(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, w := range workloads() {
		for lap := 0; lap < w.Laps; lap++ {
			for _, id := range lapPoints(w, lap) {
				want++
				if _, ok := gold[id.key(w.Name)]; !ok {
					t.Errorf("golden.json has no fingerprint for %s; run go run ./bench -update-golden", id.key(w.Name))
				}
			}
		}
	}
	if len(gold) != want {
		t.Errorf("golden.json has %d fingerprints, the tables have %d points", len(gold), want)
	}
}

// TestBenchmarkJSONAgrees checks BENCHMARK.json against the registry and
// the workload table.
func TestBenchmarkJSONAgrees(t *testing.T) {
	var bf struct {
		benchmarkFile
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the table has %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, table %q", i, bf.Workloads[i].Name, w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the registry %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		m := bf.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, registry %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the registry %d", len(bf.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		m := bf.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, registry %+v", i, m, d)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r report) string {
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mk := func(seed uint64, wall, lat float64) report {
		return report{Header: header{Seed: seed}, Workloads: []workloadReport{{Name: "torus-contended",
			EndToEnd: map[string]value{"wall_s": {wall, "s"}, "sim_latency_bt": {lat, "byte-times"}}}}}
	}
	benchmark := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", mk(1, 10, 500))
	for _, tc := range []struct {
		name string
		b    report
		ok   bool
	}{
		{"identical", mk(1, 10, 500), true},
		{"faster", mk(1, 5, 500), true},
		{"much slower", mk(1, 20, 500), false},
		{"simulated statistic moved at one seed", mk(1, 10, 500.0001), false},
		{"simulated statistic moved a little at another seed", mk(2, 10, 500.0001), true},
	} {
		err := compareReports(io.Discard, base, write("b.json", tc.b), benchmark)
		if (err == nil) != tc.ok {
			t.Errorf("%s: compare returned %v", tc.name, err)
		}
	}
}

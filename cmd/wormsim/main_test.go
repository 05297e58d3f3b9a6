package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wormlan/internal/fault"
	"wormlan/internal/sim"
	"wormlan/internal/topology"
)

// smallArgs is a fast point: a 4x4 torus with short windows.
func smallArgs(extra ...string) []string {
	return append([]string{
		"-topology", "torus4x4", "-scheme", "tree-flood",
		"-load", "0.05", "-groups", "2", "-groupsize", "4",
		"-warmup", "10000", "-measure", "60000", "-seed", "7",
	}, extra...)
}

// TestRunSmoke runs an adapter scheme and the switch-level scheme; a
// switch-level stall would exit 1.
func TestRunSmoke(t *testing.T) {
	for _, args := range [][]string{smallArgs(), smallArgs("-scheme", "switch-fabric")} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("args %v: exit %d, stderr: %s\n%s", args, code, errb.String(), out.String())
		}
		for _, want := range []string{"multicast latency", "generated worms", "fabric counters"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("args %v: output missing %q:\n%s", args, want, out.String())
			}
		}
	}
}

// TestUnhealthyRunExits1 plants a stall — one host frozen for good while
// its queue holds worms — and pins the verdict path: exit 1, nothing on
// stdout, the verdict naming the point on stderr, and the trace exported.
func TestUnhealthyRunExits1(t *testing.T) {
	g := topology.Torus(4, 4, 1, 1)
	cfg := sim.Config{Graph: g, Scheme: sim.HamiltonianSF, OfferedLoad: 0.05, MeanWorm: 400,
		Warmup: 10_000, Measure: 40_000, Seed: 7,
		FaultPlan: (&fault.Plan{}).Stall(1_000, g.Hosts()[0], 1<<40)}
	path := filepath.Join(t.TempDir(), "stall.json")
	var out, errb bytes.Buffer
	if code := simulate(cfg, path, &out, &errb); code != 1 || out.Len() != 0 {
		t.Fatalf("exit %d, want 1 with stdout empty; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(errb.String(), "wormsim: hamiltonian load 0.05: run stalled") {
		t.Errorf("stderr lacks the verdict:\n%s", errb.String())
	}
	if data, err := os.ReadFile(path); err != nil || !json.Valid(data) {
		t.Errorf("stalled run's trace not exported as JSON: %v", err)
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "nosuch"},
		{"-topology", "ring:2"},
		{"-topology", "torus4x4", "-delay", "-3"},
		{"-scheme", "nosuch"},
		{"-badflag"},
		{"-route", "left-hand"},
		{"-arb", "islip", "-arb-iters", "-3"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

// TestRunRouteValidation pins the -route flag contract: an unknown scheme
// exits 2 before any simulation, and the error spells out the full legal
// set (the identical sim.Config.Validate message mcbench produces).
func TestRunRouteValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-route", "left-hand"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	msg := errb.String()
	for _, want := range []string{"unknown route scheme", "adaptive, clos, fullmesh, shufflenet, updown, vcmin"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr missing %q:\n%s", want, msg)
		}
	}
}

// TestRunVCsValidation pins the -vcs flag contract: a lane count no fabric
// accepts exits 2 with network's one-line error, not a panic.
func TestRunVCsValidation(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-topology", "torus4x4", "-vcs", "9", "-measure", "1000"}
	if code := run(args, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if got, want := errb.String(), "wormsim: network: NumVCs 9 outside [1,4]\n"; got != want {
		t.Errorf("stderr %q, want %q", got, want)
	}
}

// TestRunVCRoutes is the CLI smoke test for the VC scheme family: each
// (topology, route) pairing runs clean, multicast included.
func TestRunVCRoutes(t *testing.T) {
	for _, tc := range []struct{ topo, route string }{
		{"torus4x4", "adaptive"},
		{"clos8x4", "clos"},
		{"shufflenet64", "shufflenet"},
	} {
		var out, errb bytes.Buffer
		args := []string{
			"-topology", tc.topo, "-route", tc.route, "-scheme", "tree",
			"-load", "0.02", "-groups", "2", "-groupsize", "4",
			"-warmup", "10000", "-measure", "40000", "-seed", "7",
		}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%s on %s: exit %d, stderr: %s", tc.route, tc.topo, code, errb.String())
		}
		if !strings.Contains(out.String(), "fabric counters") {
			t.Errorf("%s on %s: output missing counters:\n%s", tc.route, tc.topo, out.String())
		}
	}
}

// TestRunTraceAndMetrics is the -trace smoke test: the exported file must
// be valid Chrome trace-event JSON with events from both the worm and
// fabric processes, metrics must print, and two identical invocations must
// produce byte-identical trace files.
func TestRunTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(path string) (string, []byte) {
		var out, errb bytes.Buffer
		if code := run(smallArgs("-trace", path, "-metrics"), &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), data
	}
	out, data := runOnce(filepath.Join(dir, "a.json"))

	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var spans, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
		case "i":
			instants++
		}
	}
	if spans == 0 || instants == 0 {
		t.Fatalf("trace has %d spans and %d instants; want both nonzero", spans, instants)
	}
	for _, want := range []string{"channels (top", "mc-latency", "event-queue-depth", "trace:"} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, out)
		}
	}

	_, data2 := runOnce(filepath.Join(dir, "b.json"))
	if !bytes.Equal(data, data2) {
		t.Fatalf("identical invocations produced different traces (%d vs %d bytes)", len(data), len(data2))
	}
}

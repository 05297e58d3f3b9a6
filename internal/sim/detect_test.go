package sim

import (
	"strings"
	"testing"

	"wormlan/internal/adapter"
	"wormlan/internal/fault"
	"wormlan/internal/liveness"
)

// helloConfig is smallConfig with the in-band detector in the recovery
// loop and a fault schedule for it to find.
func helloConfig(scheme Scheme, load float64) Config {
	cfg := smallConfig(scheme, load)
	cfg.Detect = fault.DetectHello
	cfg.FaultPlan = fault.RandomPlan(cfg.Graph, fault.Options{
		Seed: 3, LinkDowns: 1, SwitchDowns: 1, Window: 60_000,
	})
	cfg.Adapter = adapter.Config{
		MaxRetries:     3,
		AckTimeoutBase: 16384,
		NackBackoff:    2048,
	}
	return cfg
}

func TestRunWithHelloDetection(t *testing.T) {
	r := runHealthy(t, helloConfig(TreeSF, 0.06))
	if r.Fault.LinkDowns != 1 || r.Fault.SwitchDowns != 1 {
		t.Fatalf("faults not applied: %+v", r.Fault)
	}
	d := r.Detection
	if d == nil {
		t.Fatal("Results.Detection nil in hello mode")
	}
	if d.Liveness.PeerDowns == 0 || d.Remaps == 0 {
		t.Fatalf("detection never drove recovery: %+v", d)
	}
	if d.DetectToReroute.Count == 0 || d.FaultToDetect.Count == 0 {
		t.Fatalf("detection latency histograms empty: %+v", d)
	}
	if !r.Drained {
		t.Fatal("run did not drain after hello horizon")
	}
	if fc := r.Fabric; fc.HellosSent == 0 || fc.HellosSeen == 0 {
		t.Fatalf("no hello traffic on the wire: %+v", fc)
	}
}

func TestRunHelloDetectionDeterministic(t *testing.T) {
	a, err := Run(helloConfig(TreeSF, 0.06))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(helloConfig(TreeSF, 0.06))
	if err != nil {
		t.Fatal(err)
	}
	if *a.Detection != *b.Detection || a.Fabric != b.Fabric || a.Fault != b.Fault {
		t.Fatalf("hello run not deterministic:\n%+v\n%+v", a.Detection, b.Detection)
	}
}

func TestRunHelloWithoutFaultPlan(t *testing.T) {
	// Hello detection runs standalone: no fault plan, but the detector and
	// its wire traffic are live (measuring false positives under load).
	cfg := smallConfig(TreeSF, 0.06)
	cfg.Detect = fault.DetectHello
	cfg.Liveness = &liveness.Config{Interval: 128}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Detection == nil {
		t.Fatal("Results.Detection nil in hello mode")
	}
	if r.Detection.Liveness.HellosSeen == 0 {
		t.Fatalf("detector saw no hellos: %+v", r.Detection.Liveness)
	}
	if r.Fabric.HellosSent == 0 {
		t.Fatalf("no hellos on the wire: %+v", r.Fabric)
	}
}

func TestRunOracleHasNoDetection(t *testing.T) {
	cfg := smallConfig(TreeSF, 0.06)
	cfg.FaultPlan = fault.RandomPlan(cfg.Graph, fault.Options{
		Seed: 3, LinkDowns: 1, Window: 60_000,
	})
	cfg.Adapter = adapter.Config{MaxRetries: 3, AckTimeoutBase: 16384, NackBackoff: 2048}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Detection != nil {
		t.Fatalf("oracle run grew detection stats: %+v", r.Detection)
	}
	if r.Fabric.HellosSent != 0 {
		t.Fatalf("oracle run sent hellos: %+v", r.Fabric)
	}
}

func TestHelloRejectedForSwitchLevel(t *testing.T) {
	cfg := smallConfig(SwitchFabric, 0.06)
	cfg.Detect = fault.DetectHello
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "switch-level") {
		t.Fatalf("switch-level + hello accepted: %v", err)
	}
}

func TestInvalidPlanRejectedByRun(t *testing.T) {
	cfg := smallConfig(TreeSF, 0.06)
	cfg.FaultPlan = (&fault.Plan{}).LinkUp(10, cfg.Graph.Switches()[0], 0)
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "LinkUp without a prior LinkDown") {
		t.Fatalf("malformed plan accepted: %v", err)
	}
}

package faulttest

import (
	"strings"
	"testing"

	"wormlan/internal/adapter"
	"wormlan/internal/fault"
	"wormlan/internal/topology"
)

// stallVerdict freezes a line network with several worms in flight — each
// sender's adapter stalls mid-worm, so every worm holds its switch outputs
// and nothing moves — and returns the run verdict RunErr reports.
func stallVerdict(t *testing.T) string {
	t.Helper()
	hosts := topology.Line(4, 1).Hosts()
	plan := (&fault.Plan{}).Stall(30, hosts[0], 50_000).Stall(30, hosts[3], 50_000).Stall(30, hosts[1], 50_000)
	b := newBench(t, topology.Line(4, 1), adapter.Config{PlainForwarding: true}, plan, fault.InjectorConfig{})
	for _, p := range [][2]int{{0, 3}, {3, 0}, {1, 2}} {
		must(t, b.Sys.SendUnicast(hosts[p[0]], hosts[p[1]], 800))
	}
	err := b.RunErr(20_000)
	if err == nil || !strings.Contains(err.Error(), "run stalled") {
		t.Fatalf("RunErr = %v, want a stall verdict", err)
	}
	return err.Error()
}

// TestHeldChannelsReportDeterministic replays the frozen scenario and
// byte-compares the verdict, whose stall report lists every held port:
// any dependence on map iteration order shows up as diverging text.
func TestHeldChannelsReportDeterministic(t *testing.T) {
	first := stallVerdict(t)
	if strings.Count(first, "worm=") < 2 {
		t.Fatalf("scenario needs >= 2 frozen worms to exercise report ordering:\n%s", first)
	}
	for i := 1; i < 5; i++ {
		if got := stallVerdict(t); got != first {
			t.Fatalf("replay %d diverged:\n first: %s\n   got: %s", i, first, got)
		}
	}
}

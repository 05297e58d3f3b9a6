package faulttest

import (
	"testing"

	"wormlan/internal/adapter"
	"wormlan/internal/fault"
	"wormlan/internal/topology"
)

// heldChannelsReport freezes a line network with several worms in flight
// and returns the held-channels diagnostic.  Before HeldChannelsErr
// sorted its report by worm ID, the text followed Go's randomized map
// iteration order, so two identical runs could disagree byte-for-byte.
func heldChannelsReport(t *testing.T) string {
	t.Helper()
	b := newBench(t, topology.Line(4, 1), adapter.Config{PlainForwarding: true},
		&fault.Plan{}, fault.InjectorConfig{})
	hosts := b.G.Hosts()
	send := func(src, dst topology.NodeID) {
		t.Helper()
		if err := b.Sys.SendUnicast(src, dst, 800); err != nil {
			t.Fatal(err)
		}
	}
	send(hosts[0], hosts[3])
	send(hosts[3], hosts[0])
	send(hosts[1], hosts[2])
	// Stop long before the 800-byte worms can drain, so several of them
	// are frozen holding switch output channels.
	b.K.Run(60)
	if got := len(b.Fabric.HeldChannels()); got < 2 {
		t.Fatalf("scenario needs >= 2 in-flight worms to exercise report ordering, got %d", got)
	}
	err := b.HeldChannelsErr()
	if err == nil {
		t.Fatal("expected a held-channels error mid-flight")
	}
	return err.Error()
}

// TestHeldChannelsReportDeterministic replays the frozen scenario and
// byte-compares the diagnostic across runs: each call re-ranges the
// held-channels map from scratch, so any dependence on map iteration
// order shows up as diverging report text.
func TestHeldChannelsReportDeterministic(t *testing.T) {
	first := heldChannelsReport(t)
	for i := 1; i < 5; i++ {
		if got := heldChannelsReport(t); got != first {
			t.Fatalf("replay %d diverged:\n first: %s\n   got: %s", i, first, got)
		}
	}
}

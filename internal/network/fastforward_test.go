package network

import (
	"reflect"
	"testing"

	"wormlan/internal/des"
	"wormlan/internal/topology"
)

// ffOutcome is everything a fast-forward run must reproduce exactly: the
// delivery log, the counters, the stall verdict, and the kernel's tick and
// dispatch accounting.
type ffOutcome struct {
	deliveries        [][3]int64 // host, tick, payload
	ctr               Counters
	stalled           bool
	ticks, dispatched int64
}

// ffLine builds host a — s0 — s1 — host b, with the given delays for the
// s0–s1 trunk and b's cable (a's is 1), and a rig over it; setup injects
// the scenario's worms and schedules its mid-run actions.
func ffLine(t *testing.T, trunk, sink int64, disable bool, setup func(r *rig, a, b topology.NodeID)) *rig {
	t.Helper()
	g := topology.New()
	s0, s1 := g.AddSwitch("s0"), g.AddSwitch("s1")
	g.Connect(s0, s1, trunk)
	a, b := g.AddHost("a"), g.AddHost("b")
	g.Connect(s0, a, 1)
	g.Connect(s1, b, sink)
	r := newRig(t, g, Config{DisableFastForward: disable})
	setup(r, a, b)
	return r
}

func (r *rig) outcome() ffOutcome {
	o := ffOutcome{ctr: r.f.Counters(), stalled: r.f.Stalled(1000),
		ticks: r.k.Ticks(), dispatched: r.k.Dispatched()}
	for _, d := range r.deliveries {
		o.deliveries = append(o.deliveries, [3]int64{int64(d.Host), d.At, int64(d.Worm.PayloadLen)})
	}
	return o
}

// checkSkipExact runs the scenario with and without fast-forward, requires
// fast-forward to have engaged, and the two outcomes to be identical.
func checkSkipExact(t *testing.T, trunk, sink int64, setup func(r *rig, a, b topology.NodeID)) (skips, skipped int64) {
	t.Helper()
	ff := ffLine(t, trunk, sink, false, setup)
	ff.run(t, 0)
	slow := ffLine(t, trunk, sink, true, setup)
	slow.run(t, 0)
	skips, skipped = ff.f.SkipStats()
	if skips == 0 {
		t.Fatal("fast-forward never engaged")
	}
	if got, want := ff.outcome(), slow.outcome(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fast-forward diverged from tick-by-tick:\nff:   %+v\nslow: %+v", got, want)
	}
	return skips, skipped
}

// windowAfter ticks the scenario byte by byte through tick at and returns
// the fast-forward window the next tick would open.
func windowAfter(t *testing.T, trunk int64, at des.Time, setup func(r *rig, a, b topology.NodeID)) des.Time {
	t.Helper()
	r := ffLine(t, trunk, 1, true, setup)
	r.run(t, at)
	return r.f.dueWindow(at+1, 1<<40)
}

// inject returns a setup that sends one unicast worm of the given payload
// from a to b at time 0.
func inject(t *testing.T, payload int) func(r *rig, a, b topology.NodeID) {
	return func(r *rig, a, b topology.NodeID) {
		if err := r.f.Inject(a, r.unicast(t, a, b, payload)); err != nil {
			t.Fatal(err)
		}
	}
}

// Timing on ffLine, for a worm of header 2 (one route byte per switch),
// payload P and a tail: host a sends flit i (1-based) at tick i; s0
// routes its byte and relays the rest one tick after arrival, so flit i
// (i ≥ 2) enters the trunk at tick i+1 and reaches s1 at i+1+trunk.

// TestFastForwardFillingPipe: a host streaming into a long trunk whose
// header is still in flight fast-forwards up to the header's arrival, and
// the whole run is exact.
func TestFastForwardFillingPipe(t *testing.T) {
	// At tick 10 the header byte for s1 (flit 2, on the trunk at 3) is
	// due at 103: ticks 11 … 102 only shift payload into the trunk.
	if n := windowAfter(t, 100, 10, inject(t, 1000)); n != 92 {
		t.Fatalf("window %d, want 92 (up to the header's arrival)", n)
	}
	checkSkipExact(t, 100, 1, inject(t, 1000))
}

// TestFastForwardHeaderCapsWindow: a header due at window slot k caps the
// window at exactly k, for every k across one trunk delay.
func TestFastForwardHeaderCapsWindow(t *testing.T) {
	for at := des.Time(3); at < 103; at += 7 {
		if n := windowAfter(t, 100, at, inject(t, 1000)); n != 102-at {
			t.Fatalf("after tick %d: window %d, want %d", at, n, 102-at)
		}
	}
}

// TestFastForwardCoastingPipe: once a short worm is wholly on the trunk,
// nothing is fed and nothing is due until its header lands; the coasting
// gap is one window.
func TestFastForwardCoastingPipe(t *testing.T) {
	// 23 flits: the tail enters the trunk at 24, the header lands at 303.
	if n := windowAfter(t, 300, 30, inject(t, 20)); n != 272 {
		t.Fatalf("window %d, want 272 (up to the header's arrival)", n)
	}
	if _, skipped := checkSkipExact(t, 300, 1, inject(t, 20)); skipped < 272 {
		t.Fatalf("skipped %d ticks, want at least the 272-tick coast", skipped)
	}
}

// TestFastForwardDrainingIntoRelay: an unfed trunk draining payload into
// s1's bound relay (host a and s0 are done) shifts up to the tail.
func TestFastForwardDrainingIntoRelay(t *testing.T) {
	// 103 flits: the tail (flit 103) lands at s1 at 404.
	if n := windowAfter(t, 300, 350, inject(t, 100)); n != 53 {
		t.Fatalf("window %d, want 53 (up to the tail's arrival)", n)
	}
	checkSkipExact(t, 300, 1, inject(t, 100))
}

// TestFastForwardBubbleCapsWindow: a gap in the stream (host a stalled
// for ten ticks) reaching s1's bound relay caps the window at the bubble.
func TestFastForwardBubbleCapsWindow(t *testing.T) {
	stalled := func(r *rig, a, b topology.NodeID) {
		inject(t, 1000)(r, a, b)
		r.k.At(50, func() {
			if err := r.f.StallHost(a, 60); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Host a sends nothing at 50 … 59, so s0 relays nothing at 51 … 60
	// and s1 receives nothing at 351 … 360.
	if n := windowAfter(t, 300, 320, stalled); n != 30 {
		t.Fatalf("window %d, want 30 (up to the bubble)", n)
	}
	checkSkipExact(t, 300, 1, stalled)
}

// TestFastForwardIdleCap: the skipping run ends on the same tick and
// dispatch count as the tick-by-tick run — no window runs past the tick
// the fabric would deactivate on.  Host b's long cable makes the last
// window of each worm end exactly at its tail's delivery, with no retry
// hold pending, so the next Skip meets an idle fabric; an idle gap before
// the third injection offers it a long kernel window.
func TestFastForwardIdleCap(t *testing.T) {
	worms := func(r *rig, a, b topology.NodeID) {
		inject(t, 300)(r, a, b)
		inject(t, 5)(r, a, b)
		r.k.At(5_000, func() { inject(t, 40)(r, a, b) })
	}
	checkSkipExact(t, 300, 300, worms)
}

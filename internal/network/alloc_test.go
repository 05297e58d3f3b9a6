package network

// Zero-alloc discipline pin (DESIGN.md §12): delivering a worm through the
// fabric must not allocate.  The rig below ping-pongs a pooled worm between
// two hosts — every injection takes a worm from a flit.WormPool and every
// delivery puts it back — so the measured allocations are exactly the
// fabric's own steady-state cost: stream start, queueing, routing,
// arbitration, relay, and reassembly.  TestDeliveredWormZeroAlloc pins that
// cost at zero; BenchmarkDeliveredWormAllocs reports it (with ns per
// delivered worm) for the tracked BENCH trajectory and is enforced at zero
// allocs/op in CI.

import (
	"fmt"
	"testing"

	"wormlan/internal/des"
	"wormlan/internal/flit"
	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
)

// allocPayload is the payload size used by the pin: long enough that the
// per-flit relay cost dominates the per-worm setup cost in the benchmark.
const allocPayload = 256

// allocShape describes an alloc rig: a line of senders+1 switches (one
// host each) with nvc lanes per link and every switch-to-switch cable
// delay byte-times long.  Each step, every host but the last sends one
// pooled worm of payload bytes (allocPayload when zero) to the last.
// Plain port-byte routes ride lane 0, so the same pin holds at every lane
// count: extra lanes must cost state, not allocations.  With adaptive
// set, the worms instead carry the route-anywhere marker byte and every
// hop runs the per-tick adaptive output selection — the pin extends to
// the Duato escape-lane path.  With more than one sender the worms
// contend for the last trunk, so the losers queue in slack buffers.
type allocShape struct {
	nvc      int
	delay    int64
	adaptive bool
	senders  int
	payload  int
}

// newAllocRig builds the fabric of shape c and returns it with a step
// function that injects one round of pooled worms and runs the kernel
// until every one is delivered (and its pooled storage reclaimed).
func newAllocRig(tb testing.TB, c allocShape) (*Fabric, func()) {
	tb.Helper()
	k := des.NewKernel()
	senders, payload := max(c.senders, 1), c.payload
	if payload == 0 {
		payload = allocPayload
	}
	g := topology.Line(senders+1, c.delay)
	ud, err := updown.New(g, topology.None)
	if err != nil {
		tb.Fatal(err)
	}
	var pool flit.WormPool
	delivered := 0
	cfg := Config{NumVCs: c.nvc, VCHeaders: c.adaptive, OnDeliver: func(d Delivery) {
		delivered++
		pool.Put(d.Worm)
	}}
	f, err := New(k, g, ud, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	hosts := g.Hosts()
	dst := hosts[senders]
	hdrs := make([][]byte, senders)
	if c.adaptive {
		if aerr := f.InstallAdaptive(ud); aerr != nil {
			tb.Fatal(aerr)
		}
	}
	for i := range hdrs {
		if c.adaptive {
			hdrs[i] = []byte{route.AdaptivePort}
			continue
		}
		rt, rerr := ud.Route(hosts[i], dst)
		if rerr != nil {
			tb.Fatal(rerr)
		}
		if hdrs[i], err = route.EncodeUnicast(rt.Ports); err != nil {
			tb.Fatal(err)
		}
	}
	var id int64
	return f, func() {
		for i, hdr := range hdrs {
			id++
			w := pool.Get()
			w.ID = id
			w.Src, w.Dst = hosts[i], dst
			w.Mode, w.Group = flit.Unicast, -1
			w.Header, w.PayloadLen = hdr, payload
			if err := f.Inject(hosts[i], w); err != nil {
				panic(err)
			}
		}
		if err := k.Run(0); err != nil {
			panic(err)
		}
		if int64(delivered) != id {
			panic("network: alloc rig worm not delivered")
		}
	}
}

func TestDeliveredWormZeroAlloc(t *testing.T) {
	for _, nvc := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("vcs=%d", nvc), func(t *testing.T) {
			_, step := newAllocRig(t, allocShape{nvc: nvc, delay: 1})
			// Warm the one-time capacities (host queue, port request
			// slices, event heap) that legitimately allocate on first use.
			for i := 0; i < 8; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(100, step); avg != 0 {
				t.Fatalf("delivering a worm allocated %v times, want 0", avg)
			}
		})
	}
	// A long cable: the trunk's run ring grows while the first worms mix
	// header, payload, tail and gaps on the wire, and never after, so the
	// warmed-up steady state allocates nothing either.
	t.Run("line300", func(t *testing.T) {
		f, step := newAllocRig(t, allocShape{nvc: 1, delay: 300})
		for i := 0; i < 8; i++ {
			step()
		}
		grown := false
		for _, l := range f.links {
			grown = grown || len(l.runs) > 1
		}
		if !grown {
			t.Fatal("no run ring grew during warm-up: the pin would not cover ring growth")
		}
		if avg := testing.AllocsPerRun(100, step); avg != 0 {
			t.Fatalf("delivering a worm over a 300-byte-time cable allocated %v times, want 0", avg)
		}
	})
	// Slack buffers holding several runs: three senders contend for the
	// last switch's host link, and the losers' short worms (header bytes,
	// payload, tail) queue whole in slack buffers, so their run rings grow
	// during warm-up, and never after.
	t.Run("fan-in", func(t *testing.T) {
		f, step := newAllocRig(t, allocShape{nvc: 1, delay: 1, senders: 3, payload: 8})
		for i := 0; i < 8; i++ {
			step()
		}
		grown := false
		for _, s := range f.sw {
			for pi := 0; s != nil && pi < len(s.in); pi++ {
				grown = grown || len(s.in[pi].slack.runs) > 2
			}
		}
		if !grown {
			t.Fatal("no slack ring grew past two runs during warm-up: the pin would not cover slack growth")
		}
		if avg := testing.AllocsPerRun(100, step); avg != 0 {
			t.Fatalf("delivering three contending worms allocated %v times, want 0", avg)
		}
	})
	// The escape-lane path: marker-byte routing through adaptiveSelect at
	// every hop must stay allocation-free too.
	t.Run("adaptive", func(t *testing.T) {
		_, step := newAllocRig(t, allocShape{nvc: 2, delay: 1, adaptive: true})
		for i := 0; i < 8; i++ {
			step()
		}
		if avg := testing.AllocsPerRun(100, step); avg != 0 {
			t.Fatalf("delivering an adaptive worm allocated %v times, want 0", avg)
		}
	})
}

func BenchmarkDeliveredWormAllocs(b *testing.B) {
	for _, nvc := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("vcs=%d", nvc), func(b *testing.B) {
			_, step := newAllocRig(b, allocShape{nvc: nvc, delay: 1})
			for i := 0; i < 8; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
	// Named "adaptive" (not "vcs=N"): the vcs=N entries are the
	// deterministic-route lane sweep; this one adds the per-hop choice.
	b.Run("adaptive", func(b *testing.B) {
		_, step := newAllocRig(b, allocShape{nvc: 2, delay: 1, adaptive: true})
		for i := 0; i < 8; i++ {
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
}

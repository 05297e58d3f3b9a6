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

// newAllocRig builds a two-switch line fabric with nvc lanes per link and
// a trunk cable delay byte-times long, and returns it with a step function
// that injects one pooled worm from the first host to the second and runs
// the kernel until it is delivered (and its pooled storage reclaimed).  Plain port-byte routes ride lane 0, so the same pin
// holds at every lane count: extra lanes must cost state, not allocations.
// With adaptive set, the worm instead carries the route-anywhere marker
// byte and every hop runs the per-tick adaptive output selection — the
// pin extends to the Duato escape-lane path.
func newAllocRig(tb testing.TB, nvc int, delay int64, adaptive bool) (*Fabric, func()) {
	tb.Helper()
	k := des.NewKernel()
	g := topology.Line(2, delay)
	ud, err := updown.New(g, topology.None)
	if err != nil {
		tb.Fatal(err)
	}
	var pool flit.WormPool
	delivered := 0
	cfg := Config{NumVCs: nvc, OnDeliver: func(d Delivery) {
		delivered++
		pool.Put(d.Worm)
	}}
	if adaptive {
		cfg.VCHeaders = true
	}
	f, err := New(k, g, ud, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	hosts := g.Hosts()
	var hdr []byte
	if adaptive {
		if aerr := f.InstallAdaptive(ud); aerr != nil {
			tb.Fatal(aerr)
		}
		hdr = []byte{route.AdaptivePort}
	} else {
		rt, rerr := ud.Route(hosts[0], hosts[1])
		if rerr != nil {
			tb.Fatal(rerr)
		}
		hdr, err = route.EncodeUnicast(rt.Ports)
		if err != nil {
			tb.Fatal(err)
		}
	}
	var id int64
	return f, func() {
		id++
		w := pool.Get()
		w.ID = id
		w.Src, w.Dst = hosts[0], hosts[1]
		w.Mode, w.Group = flit.Unicast, -1
		w.Header, w.PayloadLen = hdr, allocPayload
		if err := f.Inject(hosts[0], w); err != nil {
			panic(err)
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
			_, step := newAllocRig(t, nvc, 1, false)
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
		f, step := newAllocRig(t, 1, 300, false)
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
	// The escape-lane path: marker-byte routing through adaptiveSelect at
	// every hop must stay allocation-free too.
	t.Run("adaptive", func(t *testing.T) {
		_, step := newAllocRig(t, 2, 1, true)
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
			_, step := newAllocRig(b, nvc, 1, false)
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
		_, step := newAllocRig(b, 2, 1, true)
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

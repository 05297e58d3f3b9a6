package network

import (
	"reflect"
	"testing"

	"wormlan/internal/des"
	"wormlan/internal/flit"
	"wormlan/internal/route"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
	"wormlan/internal/updown"
)

// fuzzDelays are the cable delays FuzzSkipVsTick draws from: single-byte
// wires, short and odd ones, and pipes far longer than a worm.
var fuzzDelays = [...]int64{1, 2, 7, 64, 300}

// fuzzGraph builds a line (shape 0), ring (1) or dumbbell (2) of at most
// six switches.  Line and ring switches carry one host each; a dumbbell is
// a chain whose two end switches carry two hosts each.  Cable i gets delay
// fuzzDelays[(delays >> 3i) & 7 % 5].
func fuzzGraph(shape, nsw uint8, delays uint64) *topology.Graph {
	g := topology.New()
	next := func() int64 {
		d := fuzzDelays[delays&7%uint64(len(fuzzDelays))]
		delays = delays>>3 | delays<<61
		return d
	}
	var n int
	switch shape % 3 {
	case 0:
		n = 2 + int(nsw)%5
	case 1:
		n = 3 + int(nsw)%4
	default:
		n = 2 + int(nsw)%5
	}
	sw := make([]topology.NodeID, n)
	for i := range sw {
		sw[i] = g.AddSwitch("s")
	}
	for i := 0; i+1 < n; i++ {
		g.Connect(sw[i], sw[i+1], next())
	}
	if shape%3 == 1 {
		g.Connect(sw[n-1], sw[0], next())
	}
	attach := func(s topology.NodeID) { g.Connect(s, g.AddHost("h"), next()) }
	if shape%3 == 2 {
		for _, s := range []topology.NodeID{sw[0], sw[0], sw[n-1], sw[n-1]} {
			attach(s)
		}
	} else {
		for _, s := range sw {
			attach(s)
		}
	}
	return g
}

// fuzzWorm decodes one 4-byte tape entry [when, src, dst, size] into an
// injection time, a source host and a worm: a unicast (dst's top bit
// clear) whose switch-to-switch hops ride lanes picked by src's bits on a
// two-lane fabric, or a tree multicast to the hosts dst's low bits select.
func fuzzWorm(t *testing.T, ud *updown.Routing, hosts []topology.NodeID, nvc int, id int64, e []byte) (des.Time, topology.NodeID, *flit.Worm) {
	nh := len(hosts)
	src := hosts[int(e[1])%nh]
	w := &flit.Worm{ID: id, Src: src, Group: -1, PayloadLen: int(e[3]) * 8}
	var dsts []topology.NodeID
	if e[2]&0x80 != 0 {
		for i, h := range hosts {
			if h != src && e[2]>>(i%7)&1 != 0 {
				dsts = append(dsts, h)
			}
		}
	}
	if len(dsts) == 0 {
		dst := hosts[int(e[2]&0x7f)%nh]
		if dst == src {
			dst = hosts[(int(e[1])+1)%nh]
		}
		rt, err := ud.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range rt.Ports {
			// The hop into the host stays on lane 0: a host reassembles
			// one worm at a time, so its wire must not interleave lanes.
			vc := int(e[1]>>(i%8)) & 1 % nvc
			if i == len(rt.Ports)-1 {
				vc = 0
			}
			b, err := route.EncodeVCPort(p, vc)
			if err != nil {
				t.Fatal(err)
			}
			w.Header = append(w.Header, b)
		}
		w.Dst, w.Mode = dst, flit.Unicast
		return des.Time(e[0]) * 16, src, w
	}
	var routes []updown.Route
	for _, d := range dsts {
		rt, err := ud.Route(src, d)
		if err != nil {
			t.Fatal(err)
		}
		routes = append(routes, rt)
	}
	tree, err := route.BuildTree(routes)
	if err != nil {
		t.Fatal(err)
	}
	if w.Header, err = route.Encode(tree); err != nil {
		t.Fatal(err)
	}
	w.Dst, w.Mode, w.Group = topology.None, flit.MulticastTree, 0
	return des.Time(e[0]) * 16, src, w
}

// fuzzOutcome is what a skipping run must reproduce: every delivery (worm,
// host, tick), the counters, the per-channel and per-switch metrics, the
// stall verdict, and the kernel's tick and dispatch counts.
type fuzzOutcome struct {
	deliveries        [][3]int64
	ctr               Counters
	metrics           trace.Metrics
	stalled           bool
	ticks, dispatched int64
}

func fuzzRun(t *testing.T, g *topology.Graph, nvc int, tape []byte, disable bool) (fuzzOutcome, int64) {
	k := des.NewKernel()
	ud, err := updown.New(g, topology.None)
	if err != nil {
		t.Fatal(err)
	}
	var o fuzzOutcome
	f, err := New(k, g, ud, Config{NumVCs: nvc, VCHeaders: nvc > 1, DisableFastForward: disable, Metrics: true,
		OnDeliver: func(d Delivery) {
			o.deliveries = append(o.deliveries, [3]int64{d.Worm.ID, int64(d.Host), d.At})
		}})
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	for i := 0; i+4 <= len(tape) && i < 32; i += 4 {
		at, src, w := fuzzWorm(t, ud, hosts, nvc, int64(i/4+1), tape[i:i+4])
		k.At(at, func() {
			if err := f.Inject(src, w); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := k.Run(60_000); err != nil {
		t.Fatal(err)
	}
	o.ctr, o.metrics, o.stalled = f.Counters(), *f.Metrics(), f.Stalled(1000)
	o.ticks, o.dispatched = k.Ticks(), k.Dispatched()
	_, skipped := f.SkipStats()
	return o, skipped
}

// FuzzSkipVsTick is the differential check of fast-forward: on a random
// small fabric (line, ring or dumbbell; cable delays from fuzzDelays; one
// or two lanes) driven by a tape of up to eight injections, the skipping
// run and the DisableFastForward run must agree on every worm's delivery
// tick, the counters, the channel and switch metrics, the stall verdict,
// and the kernel's tick and dispatch counts.
func FuzzSkipVsTick(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), uint64(0o44), []byte{0, 0, 1, 200})
	f.Add(uint8(0), uint8(3), uint8(1), uint64(0o4444), []byte{0, 0, 3, 100, 2, 1, 0, 50, 40, 3, 1, 255})
	f.Add(uint8(1), uint8(1), uint8(2), uint64(0o3401234), []byte{0, 0, 2, 90, 0, 2, 0, 90, 9, 1, 0x83, 60})
	f.Add(uint8(2), uint8(2), uint8(2), uint64(0o14141414), []byte{0, 0x15, 2, 250, 1, 1, 3, 250, 3, 2, 0x8f, 120})
	f.Add(uint8(2), uint8(0), uint8(1), uint64(0o1234567), []byte{0, 0, 0x86, 255, 0, 3, 0, 255, 30, 2, 1, 7})
	f.Fuzz(func(t *testing.T, shape, nsw, lanes uint8, delays uint64, tape []byte) {
		g := fuzzGraph(shape, nsw, delays)
		nvc := 1 + int(lanes)%2
		ff, _ := fuzzRun(t, g, nvc, tape, false)
		slow, _ := fuzzRun(t, g, nvc, tape, true)
		if !reflect.DeepEqual(ff, slow) {
			t.Fatalf("fast-forward diverged from tick-by-tick:\nff:   %+v\nslow: %+v", ff, slow)
		}
	})
}

// TestFuzzSkipVsTickEngages: the seed corpus exercises fast-forward, so
// the differential check compares something.
func TestFuzzSkipVsTickEngages(t *testing.T) {
	g := fuzzGraph(0, 3, 0o4444)
	if _, skipped := fuzzRun(t, g, 1, []byte{0, 0, 3, 100, 2, 1, 0, 50, 40, 3, 1, 255}, false); skipped == 0 {
		t.Fatal("fast-forward never engaged on a 64-byte-time line")
	}
}

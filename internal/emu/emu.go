// Package emu models the paper's Myrinet prototype (Section 8): the
// Hamiltonian-circuit multicast run entirely in the LANai interface cards
// of eight hosts.  It is a queueing model on des.Kernel — single-threaded,
// in byte-times (1 bt = 12.5 ns, one byte on the 640 Mb/s wire), drawing no
// random numbers — so every number it produces is bit-reproducible.
//
// The LANai's one CPU serializes origination, reception and retransmission:
// each card is one busy/idle server fed by a host send queue and an input
// ring, every operation a fixed per-packet plus per-byte cost.  Cards
// cannot cut through ("worms are stored and forwarded at each host"), so
// receive-and-retransmit is one interval.  The ring is the LANai's ~25 KB
// of packet SRAM, "the only place that loss can occur in this scheme".  The
// fabric outran every host: links are handoffs, wire time paid by the sender.
//
// The service rule is the model, not an implementation detail: an engine
// with both a send request and an inbound packet waiting alternates
// between them, which is how an originating card falls behind its input
// ring (Figure 13).  One that always received first would lose nothing.
package emu

import (
	"fmt"

	"wormlan/internal/des"
)

// The calibrated prototype (DESIGN.md §3).  Wire time is 1 bt per byte.
const (
	Hosts                    = 8         // cards on the circuit
	RingBytes                = 25 * 1024 // input ring capacity: the LANai's packet SRAM
	SendOverhead    des.Time = 35200     // 440 us: application, driver, host DMA set-up
	ForwardOverhead des.Time = 8800      // 110 us: store-and-forward retransmission
	RecvOverhead    des.Time = 4800      // 60 us: reception and delivery
	DMAPerByte      des.Time = 2         // LANai-to-host copy over the SPARC peripheral bus
	Window          des.Time = 8_000_000 // Measure's interval: 100 ms of Myrinet time
)

// Packet is one multicast worm: Section 5's header of group ID and a hop
// count decremented at each retransmission.
type Packet struct {
	Group      uint8
	Hops, Size int
}

// Card is one modelled LANai network interface card.
type Card struct {
	ID               int
	RxPackets, Drops int64 // packets delivered to the host; lost to ring overflow
	k                *des.Kernel
	next             map[uint8]*Card // the paper's group table: next hop
	hops             map[uint8]int   // and hop length, by group
	sendQ            []Packet        // origination requests from the host application
	ring             []Packet        // input ring, bounded by RingBytes
	ringBytes        int
	busy, sentLast   bool // engine occupied; its previous operation was an origination
}

// LAN is the modelled Myrinet: Hosts cards on one event kernel.
type LAN struct {
	K     *des.Kernel
	Cards []*Card
}

// New builds an idle LAN at time zero.
func New() *LAN {
	l := &LAN{K: des.NewKernel()}
	for i := 0; i < Hosts; i++ {
		l.Cards = append(l.Cards, &Card{ID: i, k: l.K, next: map[uint8]*Card{}, hops: map[uint8]int{}})
	}
	return l
}

// SetupCircuit installs group g as the Hamiltonian circuit in ID order.
func (l *LAN) SetupCircuit(g uint8) {
	for i, c := range l.Cards {
		c.SetGroup(g, l.Cards[(i+1)%Hosts], Hosts-1)
	}
}

// SetGroup installs the group manager's (group, next hop, hop count) triple.
func (c *Card) SetGroup(g uint8, next *Card, hopLen int) {
	c.next[g], c.hops[g] = next, hopLen
}

// Originate queues one packet of size bytes on group g; an unknown group is an error.
func (c *Card) Originate(g uint8, size int) error {
	hops, ok := c.hops[g]
	if !ok {
		return fmt.Errorf("emu: card %d has no entry for group %d", c.ID, g)
	}
	c.sendQ = append(c.sendQ, Packet{g, hops, size})
	c.serve()
	return nil
}

// push places a packet in the input ring, or drops it when it is full.
func (c *Card) push(p Packet) {
	if c.ringBytes+p.Size > RingBytes {
		c.Drops++
		return
	}
	c.ring, c.ringBytes = append(c.ring, p), c.ringBytes+p.Size
	c.serve()
}

// serve starts the engine's next operation if it is idle and work waits.
func (c *Card) serve() {
	send, recv := len(c.sendQ) > 0, len(c.ring) > 0
	if c.busy || !send && !recv {
		return
	}
	send = send && !(recv && c.sentLast) // both ready: alternate
	var p Packet
	var cost des.Time
	if send { // host DMA + header build + wire transmission
		p, c.sendQ = c.sendQ[0], c.sendQ[1:]
		cost = SendOverhead + des.Time(p.Size)
	} else { // copy the worm to the host over the peripheral bus
		p = c.ring[0]
		c.ring, c.ringBytes = c.ring[1:], c.ringBytes-p.Size
		cost = RecvOverhead + DMAPerByte*des.Time(p.Size)
		p.Hops--
	}
	next := c.next[p.Group]
	fwd := next != nil && p.Hops >= 1
	if fwd && !send {
		cost += ForwardOverhead + des.Time(p.Size)
	}
	c.busy, c.sentLast = true, send
	c.k.After(cost, func() {
		if !send {
			c.RxPackets++
		}
		if fwd {
			next.push(p)
		}
		c.busy = false
		c.serve()
	})
}

// Point is one measured point of Figures 12/13 at a given packet size.
type Point struct {
	PacketSize int
	AllSend    bool
	// Mean data rate per receiving host (Figure 12), and the share of
	// arrivals that found the ring full, Dropped/(Received+Dropped) (Figure 13).
	ThroughputMbps, LossRate float64
	Received, Dropped        int64
}

// String renders the point as a figure row.
func (p Point) String() string {
	mode := "single"
	if p.AllSend {
		mode = "all-send"
	}
	return fmt.Sprintf("%5d B  %-8s  %7.1f Mb/s  loss %5.1f%%",
		p.PacketSize, mode, p.ThroughputMbps, p.LossRate*100)
}

// Measure runs one point: one host or every host queues more packets of
// the given size than the Window can drain ("the application simply sent
// as many packets as possible", Section 8.2).  The kernel stops at the
// Window edge and the counters are read there, as the prototype's were;
// draining first would credit all-send with a backlog no interval saw.
func Measure(size int, allSend bool) Point {
	l := New()
	l.SetupCircuit(1)
	senders, receivers := l.Cards[:1], Hosts-1 // the circuit stops short of its origin
	if allSend {
		senders, receivers = l.Cards, Hosts
	}
	for _, c := range senders {
		for t := des.Time(0); t <= Window; t += SendOverhead { // one origination takes longer
			_ = c.Originate(1, size) // the group was installed just above
		}
	}
	_ = l.K.Run(Window) // nothing halts this kernel
	p := Point{PacketSize: size, AllSend: allSend}
	for _, c := range l.Cards {
		p.Received += c.RxPackets
		p.Dropped += c.Drops
	}
	// One byte per byte-time is the 640 Mb/s wire.
	p.ThroughputMbps = float64(p.Received) * float64(size) / float64(receivers) / float64(Window) * 640
	if p.Received+p.Dropped > 0 {
		p.LossRate = float64(p.Dropped) / float64(p.Received+p.Dropped)
	}
	return p
}

// Sweep measures one curve of Figure 12 and its Figure 13 counterpart.
func Sweep(sizes []int, allSend bool) []Point {
	out := make([]Point, 0, len(sizes))
	for _, s := range sizes {
		out = append(out, Measure(s, allSend))
	}
	return out
}

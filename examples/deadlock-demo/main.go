// deadlock-demo: makes the paper's two deadlock classes observable.
//
// Part 1 — wormhole (path) deadlock in the fabric: on a ring of switches,
// hand-built clockwise routes create a cycle of blocked worms; the same
// traffic under up/down routing completes.  This is the failure mode
// up/down routing exists to prevent (Section 2).
//
// Part 2 — host-adapter buffer deadlock (Figure 6): two hosts multicast to
// each other with buffers sized for exactly one worm.  Under a single
// buffer class the reservations livelock (NACK storm, eventual give-up);
// the two-class rule of Figure 7 completes cleanly.
package main

import (
	"fmt"
	"log"

	"wormlan/internal/adapter"
	"wormlan/internal/flit"
	"wormlan/internal/network"
	"wormlan/internal/route"
	"wormlan/internal/sim"
	"wormlan/internal/topology"
)

func main() {
	pathDeadlock()
	fmt.Println()
	bufferDeadlock()
}

// pathDeadlock injects four long worms clockwise around a 4-switch ring so
// that each holds the link the next one needs.
func pathDeadlock() {
	fmt.Println("== Part 1: wormhole path deadlock on a ring ==")
	g := topology.Ring(4, 1)
	delivered := 0
	st := ringFabric(g, &delivered)
	k, fab := st.K, st.Fabric
	hosts := g.Hosts()

	// Hand-built clockwise 2-hop routes h(i) -> h(i+2): these ignore the
	// up/down rule and form the textbook channel cycle.
	clockwisePort := func(sw topology.NodeID) topology.PortID {
		next := g.Switches()[(int(sw)+1)%4]
		for pi, p := range g.Node(sw).Ports {
			if p.Wired() && p.Peer == next {
				return topology.PortID(pi)
			}
		}
		panic("no clockwise port")
	}
	hostPort := func(sw, host topology.NodeID) topology.PortID {
		for pi, p := range g.Node(sw).Ports {
			if p.Wired() && p.Peer == host {
				return topology.PortID(pi)
			}
		}
		panic("no host port")
	}
	for i := 0; i < 4; i++ {
		s0 := g.Switches()[i]
		s1 := g.Switches()[(i+1)%4]
		dst := hosts[(i+2)%4]
		hdr, err := route.EncodeUnicast([]topology.PortID{
			clockwisePort(s0), clockwisePort(s1), hostPort(g.Switches()[(i+2)%4], dst),
		})
		if err != nil {
			log.Fatal(err)
		}
		w := &flit.Worm{ID: int64(i + 1), Src: hosts[i], Dst: dst,
			Mode: flit.Unicast, Group: -1, Header: hdr, PayloadLen: 500}
		if err := fab.Inject(hosts[i], w); err != nil {
			log.Fatal(err)
		}
	}
	k.Run(20_000)
	fmt.Printf("clockwise minimal routing: delivered %d of 4 worms; stalled=%v\n",
		delivered, fab.Stalled(1000))
	if fab.Stalled(1000) {
		fmt.Println("stall report (cycle of held output ports):")
		fmt.Print(fab.StallReport())
	}

	// The same traffic under up/down routing drains without deadlock.
	delivered2 := 0
	st2 := ringFabric(g, &delivered2)
	k2, fab2 := st2.K, st2.Fabric
	for i := 0; i < 4; i++ {
		rt, err := st2.UD.Route(hosts[i], hosts[(i+2)%4])
		if err != nil {
			log.Fatal(err)
		}
		hdr, err := route.EncodeUnicast(rt.Ports)
		if err != nil {
			log.Fatal(err)
		}
		w := &flit.Worm{ID: int64(10 + i), Src: hosts[i], Dst: hosts[(i+2)%4],
			Mode: flit.Unicast, Group: -1, Header: hdr, PayloadLen: 500}
		if err := fab2.Inject(hosts[i], w); err != nil {
			log.Fatal(err)
		}
	}
	k2.Run(0)
	fmt.Printf("up/down routing:           delivered %d of 4 worms; stalled=%v\n",
		delivered2, fab2.Stalled(1000))
}

// ringFabric builds a kernel and a routed fabric over g that counts its
// deliveries; no adapter layer is attached, the caller injects raw worms.
func ringFabric(g *topology.Graph, delivered *int) *sim.Stack {
	st, err := sim.Build(sim.Config{Graph: g, Network: network.Config{
		StopMark: 8, GoMark: 4,
		OnDeliver: func(network.Delivery) { *delivered++ },
	}})
	if err != nil {
		log.Fatal(err)
	}
	return st
}

// bufferDeadlock runs the Figure 6 crossing-multicast scenario under both
// buffer disciplines.
func bufferDeadlock() {
	fmt.Println("== Part 2: host-adapter buffer deadlock (Figure 6) ==")
	for _, single := range []bool{true, false} {
		g := topology.Line(2, 1)
		st, err := sim.Build(sim.Config{
			Graph:  g,
			Scheme: sim.HamiltonianSF,
			Seed:   11,
			Adapter: adapter.Config{
				ClassBytes:  400, // exactly one worm per class
				NackBackoff: 1024,
				MaxRetries:  6,
				SingleClass: single,
			},
		})
		if err == nil {
			err = st.Attach()
		}
		if err != nil {
			log.Fatal(err)
		}
		sys := st.Sys
		delivered := 0
		sys.OnAppDeliver = func(adapter.AppDelivery) { delivered++ }
		hosts := g.Hosts()
		if err := st.AddGroup(1, hosts); err != nil {
			log.Fatal(err)
		}
		// Both hosts multicast simultaneously: each pins its only buffer
		// with its own message while the other's message asks for it.
		for _, h := range hosts {
			if _, err := sys.Adapter(h).SendMulticast(1, 400); err != nil {
				log.Fatal(err)
			}
		}
		if err := st.K.Run(0); err != nil {
			log.Fatal(err)
		}
		as := sys.Stats()
		mode := "two-class rule "
		if single {
			mode = "single class   "
		}
		fmt.Printf("%s: delivered=%d/4 nacks=%d retransmits=%d giveups=%d\n",
			mode, delivered, as.Nacks, as.Retransmits, as.GiveUps)
	}
	fmt.Println("\nThe two-buffer-class rule (class 1 before the ID reversal, class 2")
	fmt.Println("after) makes every buffer-wait chain point to a higher (ID, class)")
	fmt.Println("pair, so the cycle of Figure 6 cannot form.")
}

// Quickstart: build a small wormhole LAN, register a multicast group on a
// Hamiltonian circuit, send one message, and watch each member's adapter
// deliver it — the minimal end-to-end use of the library.
package main

import (
	"fmt"
	"log"

	"wormlan/internal/adapter"
	"wormlan/internal/sim"
	"wormlan/internal/topology"
)

func main() {
	// A LAN of four crossbar switches in a ring with two hosts each —
	// the paper's prototype configuration.
	g := topology.Myrinet4()

	// sim.Build makes the kernel, the deadlock-free up/down routing
	// (Autonet/Myrinet style) with its precomputed route table, and the
	// byte-level switching fabric; Attach puts the host-adapter protocol
	// layer on it (Hamiltonian-circuit multicast with ACK/NACK buffer
	// reservation).
	lan, err := sim.Build(sim.Config{Graph: g, Scheme: sim.HamiltonianCT, Seed: 42})
	if err == nil {
		err = lan.Attach()
	}
	if err != nil {
		log.Fatal(err)
	}

	lan.Sys.OnAppDeliver = func(d adapter.AppDelivery) {
		if d.Transfer != nil {
			fmt.Printf("t=%6d byte-times: host %d received multicast #%d from host %d (%d bytes)\n",
				d.At, d.Host, d.Transfer.ID, d.Transfer.Origin, d.Transfer.Payload)
		}
	}

	// A group of five of the eight hosts.
	hosts := g.Hosts()
	if err := lan.AddGroup(1, []topology.NodeID{
		hosts[0], hosts[2], hosts[3], hosts[5], hosts[7],
	}); err != nil {
		log.Fatal(err)
	}

	// Host 3 multicasts a 2000-byte message to the group.  The adapter
	// delivers the originator's own copy synchronously at send time
	// (unordered circuit), so the originate line comes first.
	fmt.Printf("host %d originates a 2000-byte multicast to group 1\n", hosts[3])
	if _, err := lan.Sys.Adapter(hosts[3]).SendMulticast(1, 2000); err != nil {
		log.Fatal(err)
	}

	if err := lan.K.Run(0); err != nil {
		log.Fatal(err)
	}
	st := lan.Sys.Stats()
	fmt.Printf("done at t=%d: %d deliveries, %d cut-through forwards, %d NACKs\n",
		lan.K.Now(), st.Deliveries, st.CutThroughFwds, st.Nacks)
}

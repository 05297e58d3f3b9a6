// ipmulticast-chat: the Section 8.1 interoperation demo — IP multicast
// applications (think 'wb' and 'nv') running over Myrinet multicast.
//
// Class D addresses map to 8-bit Myrinet groups by their low byte; two IP
// sessions whose addresses collide in the low bits share one Myrinet group
// (kept as the union of both memberships), and the receiving IP layer
// filters out the session a host did not join.
package main

import (
	"fmt"
	"log"
	"net"

	"wormlan/internal/adapter"
	"wormlan/internal/ipmap"
	"wormlan/internal/sim"
	"wormlan/internal/topology"
)

// session pairs a transfer with the IP group it was sent to (a real stack
// would carry the destination address in the payload header).
var sessionOf = map[int64]net.IP{}

func main() {
	whiteboard := net.ParseIP("224.2.0.9") // 'wb' session -> Myrinet group 9
	video := net.ParseIP("239.9.9.9")      // 'nv' session -> the same group 9

	g := topology.Myrinet4()
	hosts := g.Hosts()

	// The multicast group manager's view: who joined which IP session.
	tbl := ipmap.NewTable()
	join := func(h topology.NodeID, ip net.IP) {
		if _, err := tbl.Join(h, ip); err != nil {
			log.Fatal(err)
		}
	}
	join(hosts[0], whiteboard)
	join(hosts[1], whiteboard)
	join(hosts[2], whiteboard)
	join(hosts[2], video)
	join(hosts[3], video)
	join(hosts[4], video)

	mg, err := ipmap.MapIP(whiteboard)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IP %v and %v both map to Myrinet group %d\n", whiteboard, video, mg)
	fmt.Printf("union membership of group %d: %v\n\n", mg, tbl.Members(mg))

	// Wire the LAN with that union group.
	lan, err := sim.Build(sim.Config{Graph: g, Scheme: sim.HamiltonianSF, Seed: 3})
	if err == nil {
		err = lan.Attach()
	}
	if err != nil {
		log.Fatal(err)
	}
	sys, k := lan.Sys, lan.K
	if err := lan.AddGroup(int(mg), tbl.Members(mg)); err != nil {
		log.Fatal(err)
	}

	// The adapter delivers the originator's own copy synchronously inside
	// SendMulticast, before the session map entry exists, so deliveries
	// are collected and filtered after the run.
	var deliveries []adapter.AppDelivery
	sys.OnAppDeliver = func(d adapter.AppDelivery) {
		if d.Transfer != nil {
			deliveries = append(deliveries, d)
		}
	}

	// The first whiteboard member draws a stroke; the first video-only
	// member sends a frame.
	wb, err := sys.Adapter(hosts[0]).SendMulticast(int(mg), 800)
	if err != nil {
		log.Fatal(err)
	}
	sessionOf[wb.ID] = whiteboard
	nv, err := sys.Adapter(hosts[3]).SendMulticast(int(mg), 1500)
	if err != nil {
		log.Fatal(err)
	}
	sessionOf[nv.ID] = video

	if err := k.Run(0); err != nil {
		log.Fatal(err)
	}

	for _, d := range deliveries {
		ip := sessionOf[d.Transfer.ID]
		// Receiver-side IP filtering: hosts in the shared Myrinet group
		// but not in this IP session drop the packet here.
		if tbl.Accept(d.Host, ip) {
			fmt.Printf("t=%6d: host %d delivers %v packet from host %d up to the application\n",
				d.At, d.Host, ip, d.Transfer.Origin)
		} else {
			fmt.Printf("t=%6d: host %d filters out %v packet (not joined)\n",
				d.At, d.Host, ip)
		}
	}
	fmt.Printf("\nWhiteboard-only hosts (%d, %d) filtered the video frame;\n", hosts[0], hosts[1])
	fmt.Printf("video-only hosts (%d, %d) filtered the whiteboard stroke;\n", hosts[3], hosts[4])
	fmt.Printf("host %d, joined to both sessions, kept both.\n", hosts[2])
}

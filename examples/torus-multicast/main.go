// torus-multicast: a reduced Figure 10 — compares the three host-adapter
// multicast schemes (Hamiltonian store-and-forward, Hamiltonian
// cut-through, rooted tree) on the 8x8 torus across offered loads, the
// workload of Section 7.1 of the paper (10 groups of 10 members, 10%
// multicast probability, geometric 400-byte worms).
package main

import (
	"fmt"
	"log"

	"wormlan/internal/adapter"
	"wormlan/internal/sim"
	"wormlan/internal/topology"
)

func main() {
	fmt.Println("scheme                  load   mcLatency  uniLatency  thpt/host")
	for _, scheme := range []sim.Scheme{sim.HamiltonianSF, sim.HamiltonianCT, sim.TreeSF} {
		for _, load := range []float64{0.01, 0.02, 0.03, 0.04} {
			r, err := sim.Run(sim.Config{
				Graph:         topology.Torus(8, 8, 1, 1),
				Scheme:        scheme,
				OfferedLoad:   load,
				MulticastProb: 0.1,
				NumGroups:     10,
				GroupSize:     10,
				Warmup:        40_000,
				Measure:       150_000,
				Seed:          1996,
				Adapter:       adapter.Config{PlainForwarding: true},
			})
			if err == nil {
				err = r.Healthy() // no row from a broken run
			}
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-22s %5.2f  %9.0f  %9.0f   %8.4f\n",
				scheme.Name, load, r.MCLatency.Mean(), r.UniLatency.Mean(), r.ThroughputPerHost)
		}
	}
	fmt.Println("\nExpected shape (paper, Figure 10): the cut-through circuit is")
	fmt.Println("cheapest at light load; the tree overtakes it as load rises; the")
	fmt.Println("store-and-forward circuit is the most expensive throughout.")
}

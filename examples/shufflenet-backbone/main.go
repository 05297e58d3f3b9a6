// shufflenet-backbone: a reduced Figure 11 — multicast over an optical
// backbone.  The 24-node bidirectional shufflenet has 1000 byte-times of
// propagation per link, so delay (not bandwidth) dominates; the example
// sweeps the multicast proportion and compares the tree against the
// Hamiltonian circuit.
package main

import (
	"fmt"
	"log"

	"wormlan/internal/adapter"
	"wormlan/internal/sim"
	"wormlan/internal/topology"
)

func main() {
	fmt.Println("scheme                 prop   load    delay   mcLatency")
	for _, scheme := range []sim.Scheme{sim.TreeSF, sim.HamiltonianSF} {
		for _, prop := range []float64{0.05, 0.10, 0.20} {
			for _, load := range []float64{0.01, 0.03} {
				r, err := sim.Run(sim.Config{
					Graph:         topology.BidirShufflenet(2, 3, 1000),
					Scheme:        scheme,
					OfferedLoad:   load,
					MulticastProb: prop,
					NumGroups:     4,
					GroupSize:     6,
					Warmup:        100_000,
					Measure:       400_000,
					Seed:          7,
					Adapter:       adapter.Config{PlainForwarding: true},
				})
				if err == nil {
					err = r.Healthy() // no row from a broken run
				}
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("%-22s %4.2f  %5.2f  %7.0f  %9.0f\n",
					scheme.Name, prop, load, r.AllLatency.Mean(), r.MCLatency.Mean())
			}
		}
	}
	fmt.Println("\nExpected shape (paper, Figure 11): the tree's delay curve sits")
	fmt.Println("below the Hamiltonian's for every multicast proportion, and delay")
	fmt.Println("rises with both load and proportion.")
}

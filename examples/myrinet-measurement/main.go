// myrinet-measurement: the Section 8.2 experiment — LANai-resident
// Hamiltonian multicast on eight modelled host adapter cards, measuring
// per-host throughput (Figure 12) and input-buffer loss (Figure 13) as
// packet size grows, for one sender and for all eight sending at once.
//
// The cards are a queueing model on the event kernel (see internal/emu):
// each point covers 100 ms of Myrinet time, takes about a millisecond to
// compute, and prints the same numbers on every run.
package main

import (
	"fmt"

	"wormlan/internal/emu"
)

func main() {
	sizes := []int{1024, 2048, 4096, 8192}

	fmt.Println("single transmitting host (solid curve of Figure 12):")
	for _, p := range emu.Sweep(sizes, false) {
		fmt.Printf("  %s\n", p)
	}
	fmt.Println("all eight hosts transmitting (dashed curve; losses are Figure 13):")
	for _, p := range emu.Sweep(sizes, true) {
		fmt.Printf("  %s\n", p)
	}
	fmt.Println("\nExpected shape (paper): throughput rises with packet size as the")
	fmt.Println("per-packet host cost amortizes; all-send goodput sits well below the")
	fmt.Println("single-sender curve; loss appears only when hosts originate while")
	fmt.Println("forwarding, and grows with packet size.")
}

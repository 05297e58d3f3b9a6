// Package wormlan reproduces "Multicasting Protocols for High-Speed,
// Wormhole-Routing Local Area Networks" (Gerla, Palnati, Walton,
// SIGCOMM 1996) as a production-quality Go library.
//
// The repository contains:
//
//   - A deterministic byte-level wormhole LAN simulator (internal/des,
//     internal/network): crossbar switches, slack buffers with STOP/GO
//     backpressure, source routing, switch-level multicast schemes.
//   - Autonet/Myrinet up/down deadlock-free routing (internal/updown).
//   - Multicast source-route codecs, including the linearized tree header
//     of the paper's Figure 2 (internal/route).
//   - The host-adapter multicast protocols of Sections 4-6: Hamiltonian
//     circuit and rooted tree, implicit ACK/NACK buffer reservation, two
//     buffer classes, cut-through forwarding (internal/adapter,
//     internal/multicast).
//   - A queueing model of the Myrinet/LANai prototype cards of Section 8
//     on the same event kernel (internal/emu) and the IP class-D address
//     mapping of Section 8.1 (internal/ipmap).
//   - Every figure of the evaluation and the design ablations as a sweep
//     grid plus its printer (internal/core), run through the parallel
//     sweep engine (internal/sweep) by cmd/mcbench's figure table and the
//     benchmarks in bench_test.go; the output is tracked in results_*.txt.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results.
package wormlan

// Package arb implements iSLIP, the iterative request/grant/accept
// crossbar arbiter of the Tiny Tera packet switch (McKeown, "The iSLIP
// Scheduling Algorithm for Input-Queued Switches"; arXiv cs/9810006).
//
// Each output keeps a grant pointer over inputs and each input keeps an
// accept pointer over outputs.  A scheduling cell runs a fixed number of
// iterations; in each, every free output grants the first requesting
// unmatched input at or after its grant pointer, and every unmatched input
// accepts the first granting output at or after its accept pointer.
// Pointers advance one past the partner only on accepts made in the FIRST
// iteration — the discipline that de-synchronizes the pointers under
// contention and gives round-robin service (and hence starvation-freedom)
// to persistent requests.
//
// The arbiter is fully deterministic: the initial pointer positions are
// drawn from a seeded rng stream, all scans are cyclic in ascending index
// order, and a scheduling cell allocates nothing (all scratch is sized at
// construction).  The network fabric uses one instance per switch, with
// inputs and outputs both indexed by crossbar lane (port x virtual
// channel); see internal/network.
package arb

import (
	"fmt"

	"wormlan/internal/rng"
)

// arbStream namespaces the pointer-seeding rng stream.
const arbStream uint64 = 0x1511_9000_0000

// ISLIP is one crossbar's arbiter.  Methods are not safe for concurrent
// use; the simulation kernel is single-threaded by construction.
type ISLIP struct {
	nIn, nOut, iters int

	// gptr[o] is output o's grant pointer (an input index); aptr[i] is
	// input i's accept pointer (an output index).
	gptr, aptr []int

	// Per-cell request state.  wants is the nIn x nOut request matrix;
	// hasReq/reqIns track which inputs registered anything so Begin clears
	// only touched rows.
	wants  []bool
	hasReq []bool
	reqIns []int

	// Per-iteration scratch.
	granted    []int // per output: input granted this iteration, -1
	matchedOut []bool
	match      []int // per input: matched output, -1
}

// New builds an arbiter for nIn inputs and nOut outputs running iters
// request/grant/accept iterations per cell, with pointer positions seeded
// deterministically from seed.
func New(nIn, nOut, iters int, seed uint64) *ISLIP {
	if nIn <= 0 || nOut <= 0 {
		panic(fmt.Sprintf("arb: bad arbiter shape %dx%d", nIn, nOut))
	}
	if iters <= 0 {
		iters = 1
	}
	a := &ISLIP{
		nIn: nIn, nOut: nOut, iters: iters,
		gptr:       make([]int, nOut),
		aptr:       make([]int, nIn),
		wants:      make([]bool, nIn*nOut),
		hasReq:     make([]bool, nIn),
		reqIns:     make([]int, 0, nIn),
		granted:    make([]int, nOut),
		matchedOut: make([]bool, nOut),
		match:      make([]int, nIn),
	}
	r := rng.New(seed, arbStream)
	for o := range a.gptr {
		a.gptr[o] = r.Intn(nIn)
	}
	for i := range a.aptr {
		a.aptr[i] = r.Intn(nOut)
	}
	return a
}

// Begin starts a scheduling cell, clearing the previous cell's requests.
func (a *ISLIP) Begin() {
	for _, i := range a.reqIns {
		a.hasReq[i] = false
		row := a.wants[i*a.nOut : (i+1)*a.nOut]
		for o := range row {
			row[o] = false
		}
	}
	a.reqIns = a.reqIns[:0]
}

// Request registers input i as wanting each output in outs this cell.
// Duplicate registrations merge.  Match results are only meaningful for
// inputs registered since the last Begin.
func (a *ISLIP) Request(i int, outs []int) {
	if !a.hasReq[i] {
		a.hasReq[i] = true
		a.reqIns = append(a.reqIns, i)
		a.match[i] = -1
	}
	row := a.wants[i*a.nOut : (i+1)*a.nOut]
	for _, o := range outs {
		row[o] = true
	}
}

// Match runs the cell's iterations and returns the per-input match slice
// (the requested output each registered input won, or -1).  free reports
// whether an output is available at all this cell; it is consulted once
// per output per iteration.  The returned slice is the arbiter's scratch:
// valid until the next Begin.
func (a *ISLIP) Match(free func(o int) bool) []int {
	for o := range a.matchedOut {
		a.matchedOut[o] = false
	}
	for it := 0; it < a.iters; it++ {
		// Grant: every free unmatched output offers itself to the first
		// requesting unmatched input at or after its grant pointer.
		for o := 0; o < a.nOut; o++ {
			a.granted[o] = -1
			if a.matchedOut[o] || !free(o) {
				continue
			}
			base := a.gptr[o]
			for k := 0; k < a.nIn; k++ {
				i := base + k
				if i >= a.nIn {
					i -= a.nIn
				}
				if a.hasReq[i] && a.match[i] < 0 && a.wants[i*a.nOut+o] {
					a.granted[o] = i
					break
				}
			}
		}
		// Accept: every unmatched input takes the first granting output at
		// or after its accept pointer.  Pointers move only on first-
		// iteration accepts.
		any := false
		for i := 0; i < a.nIn; i++ {
			if !a.hasReq[i] || a.match[i] >= 0 {
				continue
			}
			base := a.aptr[i]
			for k := 0; k < a.nOut; k++ {
				o := base + k
				if o >= a.nOut {
					o -= a.nOut
				}
				if a.granted[o] != i {
					continue
				}
				a.match[i] = o
				a.matchedOut[o] = true
				any = true
				if it == 0 {
					a.gptr[o] = i + 1
					if a.gptr[o] == a.nIn {
						a.gptr[o] = 0
					}
					a.aptr[i] = o + 1
					if a.aptr[i] == a.nOut {
						a.aptr[i] = 0
					}
				}
				break
			}
		}
		if !any {
			break
		}
	}
	return a.match
}

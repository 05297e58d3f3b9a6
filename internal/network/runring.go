package network

import "wormlan/internal/flit"

// Run-length flit storage.
//
// A link pipeline and a slack buffer both hold long stretches of one flit
// value: a streaming worm's payload bytes are all Flit{W, Payload, VC}.
// Both store their flits as runs in a runRing, so a 1000-byte-time cable
// or the 2 056-flit slack buffer behind it holds a handful of runs, not a
// copy of the payload flit per byte-time of capacity.  A link's reverse
// channel keeps its STOP/GO symbols in one too, each a run of one.

// run is n copies of one flit value.  In a link pipeline the copies were
// sent on the consecutive ticks t, t+1, …, t+n-1; a slack buffer leaves t
// zero.
type run struct {
	fl flit.Flit
	t  int64
	n  int64
}

// runRing holds runs oldest first in runs[head], …, runs[head+nruns-1]
// (indices mod len(runs), a power of two); the cells outside that window
// are zero.  Its first storage is the inline cell: runs starts as cell[:],
// so an owner that never holds two runs at once keeps its flits in its
// own cachelines, and grow moves a busier ring to the heap.  An owner
// must not be copied once runs points at its cell.
type runRing struct {
	runs  []run
	head  int32
	nruns int32
	cell  [1]run
}

// at returns the i-th run, oldest first.
func (q *runRing) at(i int) *run { return &q.runs[(int(q.head)+i)&(len(q.runs)-1)] }

// insert places r at position i of the runs, moving the later ones back
// by one.
func (q *runRing) insert(i int, r run) {
	if int(q.nruns) == len(q.runs) {
		q.grow()
	}
	for j := int(q.nruns); j > i; j-- {
		*q.at(j) = *q.at(j - 1)
	}
	*q.at(i) = r
	q.nruns++
}

// push appends one copy of fl, lengthening the newest run when it holds
// fl: a slack buffer's runs are maximal, so neighbours always differ.
func (q *runRing) push(fl flit.Flit) {
	if q.nruns == 0 {
		// Empty ring (a standing relay on every flit): start the run in
		// place.
		r := &q.runs[q.head]
		r.fl, r.n = fl, 1
		q.nruns = 1
	} else if r := q.at(int(q.nruns) - 1); r.fl == fl {
		r.n++
	} else {
		q.insert(int(q.nruns), run{fl: fl, n: 1})
	}
}

// dropHead removes the oldest run, zeroing its cell.
func (q *runRing) dropHead() {
	q.runs[q.head] = run{}
	q.head = (q.head + 1) & int32(len(q.runs)-1)
	q.nruns--
}

// clear removes every run, zeroing their cells; the ring keeps its
// storage.
func (q *runRing) clear() {
	for i := 0; i < int(q.nruns); i++ {
		*q.at(i) = run{}
	}
	q.head, q.nruns = 0, 0
}

// grow doubles the ring, oldest run first.  A ring holds at most one run
// per flit of capacity (a cable's delay, a slack buffer's size), and grows
// only when a new mix of headers, tails, payload and gaps (or more STOP/GO
// flips per delay) first shares it, so it stops growing during warm-up
// and the steady state allocates nothing (TestDeliveredWormZeroAlloc's long-cable and stalled-sink cases
// pin that).
//
//wormlint:alloc ring growth, bounded by the owner's capacity and over once it has held its busiest mix
func (q *runRing) grow() {
	runs := make([]run, 2*len(q.runs))
	for i := 0; i < int(q.nruns); i++ {
		runs[i] = *q.at(i)
	}
	clear(q.runs) // no stale worm pointers left behind, in cell or heap
	q.runs, q.head = runs, 0
}

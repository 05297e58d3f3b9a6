// Package eventq implements the pending-event set used by the discrete-event
// simulation kernel: a pooled binary min-heap ordered by (time, sequence
// number).
//
// The byte clock does the simulator's work, so discrete events (Poisson
// arrivals, ACK/NACK timers, hello probes) are rare and the queue is a
// hundred or so deep: a heap is all that traffic needs (DESIGN.md §12).
//
// Ordering is total and FIFO among simultaneous events, which is what makes
// simulations reproducible: two events scheduled for the same instant fire
// in the order they were scheduled.  The sequence number stamped by Schedule
// is the tie-break.
//
// Events are pooled on an internal free list; Schedule returns a
// generation-checked Handle so canceling an event that already fired — and
// whose Event struct may since have been recycled for an unrelated timer —
// is a safe no-op.
package eventq

import "fmt"

// Event is a scheduled callback.  Event structs are owned and recycled by
// the Queue; callers hold Handles, never long-lived *Event pointers.
type Event struct {
	// Time is the simulation time at which the event fires, in byte-times.
	Time int64
	// Fire is invoked when the event is dispatched.
	Fire func()

	seq  uint64 // scheduling order: the FIFO tie-break among equal times
	gen  uint64 // bumped on recycle; stale Handles no-op
	next *Event // free-list link
	// pos is the event's index in the heap while queued; -1 when free or
	// popped.
	pos int32
}

// Handle identifies one scheduled event for cancellation.  The zero Handle
// is inert.  A Handle to an event that has fired or been canceled no-ops on
// Cancel, even if the underlying Event struct has been recycled since.
type Handle struct {
	e   *Event
	gen uint64
}

// Scheduled reports whether the handle still refers to a pending event.
func (h Handle) Scheduled() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.pos >= 0
}

// Queue is a pending-event set.  The zero value is ready to use.
// Queue is not safe for concurrent use; the DES kernel is single-threaded.
type Queue struct {
	heap []*Event
	// popped is the time of the most recent Pop: the floor below which
	// scheduling is a model bug.
	popped int64
	seq    uint64
	free   *Event
}

// Len returns the number of scheduled (non-canceled) events.
// Canceled events are removed eagerly, so Len is exact.
func (q *Queue) Len() int { return len(q.heap) }

// Schedule adds an event firing at time t and returns a handle that can be
// used to cancel it.  Scheduling before the time of the last Pop panics:
// the kernel never schedules in the past.
func (q *Queue) Schedule(t int64, fire func()) Handle {
	if t < q.popped {
		panic(fmt.Sprintf("eventq: scheduling at %d before last pop %d", t, q.popped))
	}
	e := q.alloc()
	q.seq++
	e.Time, e.Fire, e.seq = t, fire, q.seq
	q.heap = append(q.heap, e)
	q.up(len(q.heap)-1, e)
	return Handle{e: e, gen: e.gen}
}

// Cancel removes the event from the queue.  Canceling a zero Handle, or one
// whose event has already fired or been canceled, is a no-op.
func (q *Queue) Cancel(h Handle) {
	e := h.e
	if e == nil || e.gen != h.gen || e.pos < 0 {
		return
	}
	q.remove(int(e.pos))
	q.recycle(e)
}

// PeekTime returns the firing time of the earliest event.
// It panics if the queue is empty.
func (q *Queue) PeekTime() int64 { return q.heap[0].Time }

// Pop removes and returns the earliest event.  It panics if the queue is
// empty.  The caller should pass the event to Free once done with it so the
// struct returns to the pool; an un-Freed event is simply garbage-collected.
func (q *Queue) Pop() *Event {
	e := q.heap[0]
	q.popped = e.Time
	q.remove(0)
	return e
}

// Free returns a popped event to the pool.  The caller must drop every
// reference to it; outstanding Handles become inert.
func (q *Queue) Free(e *Event) {
	if e.pos >= 0 {
		panic("eventq: Free of a still-queued event")
	}
	q.recycle(e)
}

func less(a, b *Event) bool {
	return a.Time < b.Time || a.Time == b.Time && a.seq < b.seq
}

// remove takes the event at heap index i out of the queue and re-seats the
// last event in the hole it leaves.
func (q *Queue) remove(i int) {
	n := len(q.heap) - 1
	q.heap[i].pos = -1
	last := q.heap[n]
	q.heap[n] = nil
	q.heap = q.heap[:n]
	if i == n {
		return
	}
	if i > 0 && less(last, q.heap[(i-1)/2]) {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
}

// up seats e at or above the hole at index i, moving larger parents down.
func (q *Queue) up(i int, e *Event) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(e, q.heap[p]) {
			break
		}
		q.heap[i] = q.heap[p]
		q.heap[i].pos = int32(i)
		i = p
	}
	q.heap[i] = e
	e.pos = int32(i)
}

// down seats e at or below the hole at index i, moving smaller children up.
func (q *Queue) down(i int, e *Event) {
	n := len(q.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(q.heap[r], q.heap[c]) {
			c = r
		}
		if !less(q.heap[c], e) {
			break
		}
		q.heap[i] = q.heap[c]
		q.heap[i].pos = int32(i)
		i = c
	}
	q.heap[i] = e
	e.pos = int32(i)
}

func (q *Queue) alloc() *Event {
	if e := q.free; e != nil {
		q.free = e.next
		e.next = nil
		return e
	}
	//wormlint:alloc pool miss: the event joins the free-list when popped or cancelled
	return &Event{pos: -1}
}

func (q *Queue) recycle(e *Event) {
	e.gen++
	e.Time = 0
	e.seq = 0
	e.Fire = nil
	e.pos = -1
	e.next = q.free
	q.free = e
}

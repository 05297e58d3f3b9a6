package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

// oracle is the obviously-correct pending set the heap is checked against:
// one slice kept sorted by time, inserting after every equal time so that
// simultaneous events stay in scheduling order, with linear-time insert and
// delete.  Events are known by the caller's id.
type oracle struct{ pending []oracleEvent }

type oracleEvent struct {
	time int64
	id   int
}

func (o *oracle) schedule(t int64, id int) {
	i := sort.Search(len(o.pending), func(i int) bool { return o.pending[i].time > t })
	o.pending = append(o.pending, oracleEvent{})
	copy(o.pending[i+1:], o.pending[i:])
	o.pending[i] = oracleEvent{t, id}
}

// cancel removes ev if it is still pending and no-ops otherwise.
func (o *oracle) cancel(ev oracleEvent) {
	i := sort.Search(len(o.pending), func(i int) bool { return o.pending[i].time >= ev.time })
	for ; i < len(o.pending) && o.pending[i].time == ev.time; i++ {
		if o.pending[i] == ev {
			o.pending = append(o.pending[:i], o.pending[i+1:]...)
			return
		}
	}
}

func (o *oracle) pop() oracleEvent {
	e := o.pending[0]
	o.pending = o.pending[1:]
	return e
}

// pair drives a Queue and the oracle in lockstep.  Operation ids travel in
// the Fire closure so the comparison identifies individual events, not just
// times.
type pair struct {
	t      *testing.T
	q      Queue
	ref    oracle
	issued []issue // every handle issued, pending or not
	fired  int     // set by the Fire closure of the event just popped
}

// issue is one Schedule call: the handle it returned and the event it was
// returned for.
type issue struct {
	h  Handle
	ev oracleEvent
}

func (p *pair) schedule(t int64, id int) {
	h := p.q.Schedule(t, func() { p.fired = id })
	p.issued = append(p.issued, issue{h, oracleEvent{t, id}})
	p.ref.schedule(t, id)
	p.checkLen()
}

// cancel cancels the j'th issued handle, which may have fired or been
// canceled already.
func (p *pair) cancel(j int) {
	p.q.Cancel(p.issued[j].h)
	p.ref.cancel(p.issued[j].ev)
	p.checkLen()
}

// pop pops both sides, checks they agree on PeekTime, firing time and
// identity, and returns the firing time.
func (p *pair) pop() int64 {
	want := p.ref.pop()
	if pt := p.q.PeekTime(); pt != want.time {
		p.t.Fatalf("PeekTime = %d, oracle's earliest is %d", pt, want.time)
	}
	e := p.q.Pop()
	e.Fire()
	if e.Time != want.time || p.fired != want.id {
		p.t.Fatalf("popped event %d at %d, oracle says event %d at %d", p.fired, e.Time, want.id, want.time)
	}
	now := e.Time
	p.q.Free(e)
	p.checkLen()
	return now
}

func (p *pair) checkLen() {
	if p.q.Len() != len(p.ref.pending) {
		p.t.Fatalf("Len = %d, oracle holds %d", p.q.Len(), len(p.ref.pending))
	}
}

func (p *pair) drain() {
	for p.q.Len() > 0 {
		p.pop()
	}
}

// TestQueueMatchesSortedOracle drives the queue and the sorted-slice oracle
// with an identical random sequence of 10^5 schedule/cancel/pop operations
// and asserts identical pop order — including FIFO order among
// same-timestamp events, which is the kernel's determinism contract.  The
// queue grows to some 20 000 pending events, whose memmoves in the oracle
// the race detector prices at 40 s; -short runs a fifth of the operations.
func TestQueueMatchesSortedOracle(t *testing.T) {
	ops := 100_000
	if testing.Short() {
		ops = 20_000
	}
	for _, seed := range []int64{1, 2, 1996} {
		r := rand.New(rand.NewSource(seed))
		p := &pair{t: t}
		now := int64(0)
		for i := 0; i < ops; i++ {
			switch op := r.Intn(10); {
			case op < 6 || p.q.Len() == 0:
				// Mostly near-future times with occasional far outliers, and
				// a deliberately small range so same-timestamp collisions are
				// common.
				d := int64(r.Intn(64))
				if op == 0 {
					d = int64(r.Intn(1 << 20))
				}
				p.schedule(now+d, i)
			case op < 8 && len(p.issued) > 0:
				p.cancel(r.Intn(len(p.issued)))
			default:
				now = p.pop()
			}
		}
		p.drain()
	}
}

// FuzzQueueVsSortedOracleWithCancels feeds arbitrary byte strings as
// operation tapes: each byte schedules, cancels a previously issued handle
// (possibly one that already fired — Cancel must be a no-op then), or pops.
// Cancels stress the handle generation counters, free-list recycling and
// removal from the middle of the heap, which must not disturb FIFO order
// among the survivors.
func FuzzQueueVsSortedOracleWithCancels(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x80, 0xFF})
	f.Add([]byte{7, 7, 0x81, 7, 0xFF, 0xFF, 0x80})
	f.Add([]byte{0x29, 3, 3, 0x82, 0xFF, 0x28, 0xFF, 0xFF})
	f.Add([]byte{1, 0x2F, 0x80, 0x81, 0x82, 0xFF, 2, 0xFF})
	f.Fuzz(func(t *testing.T, tape []byte) {
		p := &pair{t: t}
		now := int64(0)
		for i, b := range tape {
			switch {
			case b == 0xFF:
				if p.q.Len() > 0 {
					now = p.pop()
				}
			case b&0xC0 == 0x80:
				if len(p.issued) > 0 {
					p.cancel(int(b&0x3F) % len(p.issued))
				}
			default:
				// Near deltas for same-time pileups; bit 5 selects a far
				// time, one per power of 256.
				d := int64(b & 15)
				if b&0x20 != 0 {
					d = int64(1) << (8 * uint(b&3))
				}
				p.schedule(now+d, i)
			}
		}
		p.drain()
	})
}

// FuzzSameTimestampFIFO feeds arbitrary byte strings as operation tapes:
// each byte either schedules at one of a handful of timestamps (forcing
// heavy same-timestamp collisions) or pops.  The queue must fire events in
// exactly the oracle's order.
func FuzzSameTimestampFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 0xFF, 0xFF, 1, 1, 0xFF})
	f.Add([]byte{7, 7, 7, 0xFF, 7, 7, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 4, 0xFF, 4, 0, 0xFF, 2, 2, 2, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, tape []byte) {
		p := &pair{t: t}
		now := int64(0)
		for i, b := range tape {
			if b == 0xFF && p.q.Len() > 0 {
				now = p.pop()
				continue
			}
			// Map the byte onto 8 timestamps near now (same-time pileups)
			// and one far time per power of 256.
			d := int64(b & 7)
			if b&8 != 0 {
				d = int64(1) << (8 * uint(b&7))
			}
			p.schedule(now+d, i)
		}
		p.drain()
	})
}

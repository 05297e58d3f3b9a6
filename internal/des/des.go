// Package des provides the discrete-event simulation kernel used by the
// wormhole network simulator.
//
// The paper's original simulator was written in Maisie, a C-based
// discrete-event simulation language, and modelled the network "at the byte
// level" (Section 7).  This kernel reproduces that abstraction: simulation
// time advances in byte-times (the time to transfer one byte on a 640 Mb/s
// Myrinet link, 12.5 ns), and components schedule callbacks on a shared
// event queue.  Execution is single-threaded and strictly deterministic:
// events with equal timestamps fire in scheduling order.
//
// The component that advances in lock-step with the wire clock (the
// fabric, whose switch ports shift one byte per byte-time) is the kernel's
// one Ticker instead of scheduling per-byte events; the kernel runs it from
// a single event per occupied byte-time, and inline while no other event is
// due, which keeps the event queue small even though the model is
// byte-accurate.
package des

import (
	"fmt"

	"wormlan/internal/eventq"
)

// Time is a simulation timestamp in byte-times.
type Time = int64

// Ticker is a component that needs to run once per byte-time while active.
// Tick is called with the current simulation time.  It returns false when
// the ticker has gone idle and wants to be descheduled; it can re-arm itself
// later via Kernel.Activate.  A kernel has at most one ticker.
type Ticker interface {
	Tick(now Time) bool
}

// Skipper is an optional Ticker extension for fast-forwarding: a component
// that can prove its next ticks are state-identical repeats may apply up to
// max of them in one step and return how many it applied (0 = none).
//
// The contract is strict — this is an optimization, never a semantic knob:
// after Skip(now, max) returns n, the component's observable state must be
// byte-identical to having received Tick(now), Tick(now+1), …, Tick(now+n-1)
// with no interleaved events.  The kernel only calls Skip when that premise
// holds: no queue event is due before now+n+1 and the run deadline is not
// crossed (the component is the kernel's one ticker, so no other ticker can
// interleave).  Skip must not schedule events or activate the ticker.
type Skipper interface {
	Ticker
	Skip(now Time, max Time) Time
}

// Kernel is a deterministic discrete-event simulation kernel.
type Kernel struct {
	now    Time
	queue  eventq.Queue
	halted bool
	err    error

	// The one ticker, and the same value as a Skipper when it is one.  An
	// idle ticker has no tick event queued, so activating it always arms
	// it for the next byte-time.
	ticker  Ticker
	skipper Skipper
	active  bool

	tickSched bool
	runTickFn func() // k.runTick, bound once to avoid per-tick closures
	deadline  Time   // current Run's deadline; bounds tick batching

	// Observe, if non-nil, runs after every dispatched event with the
	// current time.  Metrics collectors use it to sample kernel state
	// (queue depth, progress) at deterministic points; the hook must not
	// schedule events or mutate simulation state.
	Observe func(now Time)

	dispatched int64
	ticks      int64
	maxQueue   int
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	k := &Kernel{}
	// Bind the tick dispatcher once: a method value allocates a closure,
	// and scheduleTick runs once per occupied byte-time.
	k.runTickFn = k.runTick
	return k
}

// Now returns the current simulation time in byte-times.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at absolute time t.  Scheduling in the past panics:
// it is always a model bug.
func (k *Kernel) At(t Time, fn func()) eventq.Handle {
	if t < k.now {
		panic(fmt.Sprintf("des: scheduling at %d before now %d", t, k.now))
	}
	return k.queue.Schedule(t, fn)
}

// After schedules fn to run d byte-times from now.
func (k *Kernel) After(d Time, fn func()) eventq.Handle {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %d", d))
	}
	return k.queue.Schedule(k.now+d, fn)
}

// Cancel cancels a previously scheduled event.  Canceling a zero or
// already-fired handle is a no-op.
func (k *Kernel) Cancel(h eventq.Handle) { k.queue.Cancel(h) }

// Activate arms the kernel's ticker so that its Tick method runs once per
// byte-time starting at the next byte-time boundary.  The first Activate
// fixes the ticker; activating another one panics, like scheduling in the
// past: a kernel drives one lock-step component.  Activating an
// already-active ticker is a no-op.
func (k *Kernel) Activate(t Ticker) {
	if k.ticker != t {
		if k.ticker != nil {
			panic("des: a second ticker on one kernel")
		}
		k.ticker = t
		k.skipper, _ = t.(Skipper)
	}
	if k.active {
		return
	}
	k.active = true
	k.scheduleTick()
}

func (k *Kernel) scheduleTick() {
	if k.tickSched {
		return
	}
	k.tickSched = true
	k.queue.Schedule(k.now+1, k.runTickFn)
}

// runTick runs the ticker once, then keeps ticking inline — advancing the
// clock directly — for as long as no queue event is due at or before the
// next byte-time.  Batching is unobservable by construction: a tick
// consumed from the queue and a tick run inline see identical kernel state,
// and the loop falls back to the queue the moment an event (including one
// scheduled by the ticker during its tick) would interleave.  During long
// uncontended stretches this turns the pop/push-per-byte-time cycle into a
// plain loop.
func (k *Kernel) runTick() {
	k.tickSched = false
	for {
		k.ticks++
		if !k.ticker.Tick(k.now) {
			k.active = false
			return
		}
		if k.halted ||
			(k.queue.Len() > 0 && k.queue.PeekTime() <= k.now+1) ||
			(k.deadline > 0 && k.now+1 > k.deadline) {
			k.scheduleTick()
			return
		}
		// Account the inline tick like the queue event it replaces; the
		// final pass of the loop is accounted by Run itself.
		k.dispatched++
		if k.Observe != nil {
			k.Observe(k.now)
		}
		k.now++
		// Fast-forward: a skipper may apply a run of provably
		// state-identical ticks in one step.  Bounds keep the premise
		// airtight: no queue event may be due at or before the tick pass
		// that follows the skipped run, and the deadline is not crossed.
		// Skipped ticks are accounted (ticks, dispatched, Observe) exactly
		// as if they had been run, so every derived statistic matches a
		// non-skipping run byte for byte.
		if k.skipper != nil {
			max := Time(1) << 40
			if k.queue.Len() > 0 {
				max = k.queue.PeekTime() - k.now - 1
			}
			if k.deadline > 0 {
				if d := k.deadline - k.now; d < max {
					max = d
				}
			}
			if max > 0 {
				if n := k.skipper.Skip(k.now, max); n > 0 {
					k.ticks += n
					k.dispatched += n
					if k.Observe != nil {
						for i := Time(0); i < n; i++ {
							k.Observe(k.now + i)
						}
					}
					k.now += n
				}
			}
		}
	}
}

// Halt stops the run loop after the current event.  err may be nil for a
// clean stop (e.g. a stop condition reached).
func (k *Kernel) Halt(err error) {
	k.halted = true
	if k.err == nil {
		k.err = err
	}
}

// Run dispatches events until the queue drains, Halt is called, or the
// simulation clock passes deadline (0 means no deadline).  It returns the
// error passed to Halt, if any.
func (k *Kernel) Run(deadline Time) error {
	k.deadline = deadline
	for !k.halted && k.queue.Len() > 0 {
		t := k.queue.PeekTime()
		if deadline > 0 && t > deadline {
			k.now = deadline
			break
		}
		e := k.queue.Pop()
		k.now = t
		// The event struct returns to the pool before firing so callbacks
		// that schedule immediately can reuse it; `fire` keeps the closure.
		fire := e.Fire
		k.queue.Free(e)
		if fire != nil {
			fire()
		}
		// Sample the high-water mark after the callback: the tick-coalescing
		// event has re-queued itself by then, so the reading reflects the
		// true pending-set size instead of systematically missing it.
		if n := k.queue.Len(); n > k.maxQueue {
			k.maxQueue = n
		}
		k.dispatched++
		if k.Observe != nil {
			k.Observe(k.now)
		}
	}
	if !k.halted && deadline > 0 && k.now < deadline && k.queue.Len() == 0 {
		k.now = deadline
	}
	return k.err
}

// Pending returns the number of scheduled events (diagnostic).
func (k *Kernel) Pending() int { return k.queue.Len() }

// Dispatched returns the number of events fired so far.
func (k *Kernel) Dispatched() int64 { return k.dispatched }

// MaxQueue returns the high-water mark of the event queue, sampled after
// each event fires (so the self-re-queuing tick event is counted).
func (k *Kernel) MaxQueue() int { return k.maxQueue }

// Ticks returns the number of tick passes run, skipped ones included.
func (k *Kernel) Ticks() int64 { return k.ticks }

// EventsPerTick returns the ratio of dispatched events to tick passes: ~1.0
// for a purely ticker-driven load (every event is a byte-time tick), higher
// when discrete events (timers, traffic arrivals) dominate.  Zero before
// the first tick.
func (k *Kernel) EventsPerTick() float64 {
	if k.ticks == 0 {
		return 0
	}
	return float64(k.dispatched) / float64(k.ticks)
}

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
// Components that advance in lock-step with the wire clock (switch ports
// shifting one byte per byte-time) register Tickers instead of scheduling
// per-byte events; the kernel coalesces all tickers into a single event per
// occupied byte-time, which keeps the event queue small even though the
// model is byte-accurate.
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
// later via Kernel.Activate.
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
// holds: the component is the sole live ticker, no queue event is due before
// now+n+1, and the run deadline is not crossed.  Skip must not schedule
// events or activate tickers.
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

	// The ticker registry is an append-only slice with parallel active
	// flags (no map: registration order is iteration order, and the flag
	// flip is branch-predictable on the hot path).  activeSince records
	// when each ticker was last armed so a ticker activated in the middle
	// of a tick pass first runs at the next byte-time, exactly as when
	// every tick was its own queue event.
	tickers     []Ticker
	skippers    []Skipper // tickers[i] as Skipper, nil when not implemented
	active      []bool
	activeSince []Time
	tickSched   bool
	runTickFn   func() // k.runTick, bound once to avoid per-tick closures
	deadline    Time   // current Run's deadline; bounds tick batching

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

// Activate arms a ticker so that its Tick method runs once per byte-time
// starting at the next byte-time boundary.  Activating an already-active
// ticker is a no-op.  Tick order among tickers follows first-activation
// order, which keeps runs reproducible.
func (k *Kernel) Activate(t Ticker) {
	ix := -1
	for i, r := range k.tickers {
		if r == t {
			ix = i
			break
		}
	}
	if ix < 0 {
		ix = len(k.tickers)
		k.tickers = append(k.tickers, t)
		sk, _ := t.(Skipper)
		k.skippers = append(k.skippers, sk)
		k.active = append(k.active, false)
		k.activeSince = append(k.activeSince, 0)
	} else if k.active[ix] {
		return
	}
	k.active[ix] = true
	k.activeSince[ix] = k.now
	k.scheduleTick()
}

func (k *Kernel) scheduleTick() {
	if k.tickSched {
		return
	}
	k.tickSched = true
	k.queue.Schedule(k.now+1, k.runTickFn)
}

// runTick dispatches one tick pass over the active tickers, then keeps
// ticking inline — advancing the clock directly — for as long as no queue
// event is due at or before the next byte-time.  Batching is unobservable
// by construction: a tick consumed from the queue and a tick run inline see
// identical kernel state, and the loop falls back to the queue the moment
// an event (including one scheduled by a ticker during the pass) would
// interleave.  During long uncontended stretches this turns the
// pop/push-per-byte-time cycle into a plain loop.
func (k *Kernel) runTick() {
	k.tickSched = false
	for {
		k.ticks++
		nLive, liveIdx := 0, -1
		pending := false
		for i, t := range k.tickers {
			if !k.active[i] {
				continue
			}
			// Tickers armed during this pass start next byte-time, as if
			// the tick event had been re-queued before their activation.
			if k.activeSince[i] >= k.now {
				pending = true
				continue
			}
			if t.Tick(k.now) {
				nLive++
				liveIdx = i
			} else {
				k.active[i] = false
			}
		}
		if nLive == 0 {
			// Idle: a ticker armed mid-pass has already scheduled the
			// next tick event via Activate.
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
		// Fast-forward: a sole live skipper may apply a run of provably
		// state-identical ticks in one step.  Bounds keep the premise
		// airtight: no queue event may be due at or before the tick pass
		// that follows the skipped run, and the deadline is not crossed.
		// Skipped ticks are accounted (ticks, dispatched, Observe) exactly
		// as if they had been run, so every derived statistic matches a
		// non-skipping run byte for byte.
		if nLive == 1 && !pending && k.skippers[liveIdx] != nil {
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
				if n := k.skippers[liveIdx].Skip(k.now, max); n > 0 {
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

// Halted reports whether Halt has been called.
func (k *Kernel) Halted() bool { return k.halted }

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

// Ticks returns the number of tick passes run over the active tickers.
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

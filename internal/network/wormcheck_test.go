//go:build wormcheck

package network

import (
	"strings"
	"testing"

	"wormlan/internal/flit"
	"wormlan/internal/topology"
)

// mustWormfail runs fn and asserts wormcheckTick panics with a message
// containing frag.
func mustWormfail(t *testing.T, r *rig, frag string, fn func()) {
	t.Helper()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatalf("wormcheck did not detect corruption (want panic containing %q)", frag)
		}
		msg, ok := p.(string)
		if !ok || !strings.Contains(msg, frag) {
			t.Fatalf("wormcheck panic = %v, want message containing %q", p, frag)
		}
	}()
	fn()
	r.f.wormcheckTick(r.k.Now())
}

// streaming returns a switch lane relaying the rig's worm.
func streaming(t *testing.T, r *rig) (*swState, *inPort) {
	t.Helper()
	for _, s := range r.f.sw {
		if s == nil {
			continue
		}
		for pi := range s.in {
			if s.in[pi].mode == pmBoundUni {
				return s, &s.in[pi]
			}
		}
	}
	t.Fatal("no streaming lane")
	return nil, nil
}

// TestWormcheckDetectsCorruption deliberately desynchronizes each class of
// derived state and asserts the checker catches it: a checker that cannot
// fail proves nothing.
func TestWormcheckDetectsCorruption(t *testing.T) {
	build := func() *rig {
		r := newRig(t, topology.Line(2, 1), Config{})
		hosts := r.g.Hosts()
		if err := r.f.Inject(hosts[0], r.unicast(t, hosts[0], hosts[1], 64)); err != nil {
			t.Fatal(err)
		}
		r.run(t, 10) // mid-flight: links occupied, a switch lane streaming
		return r
	}

	t.Run("clean", func(t *testing.T) {
		r := build()
		r.f.wormcheckTick(r.k.Now()) // must not panic
	})
	t.Run("link-inflight", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "runs hold", func() { r.f.links[0].inFlight++ })
	})
	// The run ring: out of send order, a run whose slot lost its arrival
	// bit, a bit set outside every run, a stale cell, a ring that is not a
	// power of two.
	inFlightLink := func(r *rig) *dlink {
		for _, l := range r.f.links {
			if l.nruns > 0 {
				return l
			}
		}
		t.Fatal("no link in flight")
		return nil
	}
	t.Run("run-order", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "out of send order", func() { inFlightLink(r).at(0).t-- })
	})
	t.Run("run-bit", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "no arrival bit", func() {
			l := inFlightLink(r)
			l.mark(l.at(0).t, 1, false)
		})
	})
	t.Run("stray-bit", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "arrival bits set", func() {
			c := &r.f.classes[0]
			c.arr[len(c.arr)-1] |= 1 << 63
		})
	})
	t.Run("run-cell", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "not zeroed", func() {
			l := inFlightLink(r)
			l.grow()
			l.at(int(l.nruns)).n = 1
		})
	})
	t.Run("run-ring", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "power-of-two", func() {
			l := inFlightLink(r)
			l.grow()
			l.grow()
			l.runs = l.runs[:3]
		})
	})
	t.Run("fabric-inflight", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "in total", func() { r.f.inFlight++ })
	})
	// The reverse channel: a symbol that flips nothing, a link in settle
	// with no symbol in flight, a wish the downstream lanes do not hold.
	t.Run("symbol-repeat", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "one flip per symbol", func() {
			l := r.f.links[0]
			l.signal(r.k.Now(), l.wish())
		})
	})
	t.Run("settle", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "settle=true with 0 symbols", func() { r.f.settle.set(0) })
	})
	t.Run("wish", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "downstream lanes wish", func() {
			l := r.f.links[0]
			l.stopMask = 1
			r.f.linkAct.set(l.id)
		})
	})
	t.Run("sleeping-head", func(t *testing.T) {
		r := build()
		s, _ := streaming(t, r)
		mustWormfail(t, r, "sleeping head", func() {
			for pi := range s.in {
				if in := &s.in[pi]; in.mode == pmIdle {
					s.sleep(in)
					return
				}
			}
			t.Fatal("no idle lane")
		})
	})
	t.Run("napped-lane", func(t *testing.T) {
		r := build()
		s, in := streaming(t, r)
		mustWormfail(t, r, "napped lane is not STOP-held", func() { s.nap(in, napStopped) })
	})
	t.Run("napped-host", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "napped host", func() { r.f.hosts[r.g.Hosts()[0]].nap() })
	})
	t.Run("rest-count", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "naps=", func() { r.f.naps++ })
	})
	t.Run("pub-switch", func(t *testing.T) {
		r := build()
		s, in := streaming(t, r)
		mustWormfail(t, r, "not in pubSw", func() {
			s.dirtyIns.set(in.idx)
			r.f.pubSw.clear(int(s.node))
		})
	})
	t.Run("wish-count", func(t *testing.T) {
		r := build()
		var s *swState
		for _, c := range r.f.sw {
			if c != nil {
				s = c
				break
			}
		}
		mustWormfail(t, r, "wishPorts", func() { s.wishPorts++ })
	})
	t.Run("bound-count", func(t *testing.T) {
		r := build()
		var s *swState
		for _, c := range r.f.sw {
			if c != nil && s == nil {
				s = c
			}
		}
		mustWormfail(t, r, "nBoundOuts", func() { s.nBoundOuts++ })
	})
	t.Run("rx-busy", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "rxBusy", func() { r.f.rxBusy++ })
	})
	// The slack run ring: a stray cell outside the runs, counts that do not
	// sum to fill, a run split from an equal neighbour, a ring that is not
	// a power of two.  Each corrupts an idle, awake lane, so no check that
	// runs before checkSlack trips first.
	idleLane := func(r *rig) *inPort {
		for _, c := range r.f.sw {
			if c == nil {
				continue
			}
			for pi := range c.in {
				if in := &c.in[pi]; in.cap > 0 && in.mode == pmIdle && in.rest == awake {
					return in
				}
			}
		}
		t.Fatal("no idle slack-backed lane found")
		return nil
	}
	stray := flit.Flit{W: &flit.Worm{ID: 99}, Tag: flit.Tag{Kind: flit.Payload}}
	t.Run("slack-cell", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "not zeroed", func() {
			q := &idleLane(r).slack
			q.grow()
			q.at(int(q.nruns)).fl = stray
		})
	})
	t.Run("slack-count", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "slack runs hold", func() { idleLane(r).slack.push(stray) })
	})
	t.Run("slack-split", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "of its own flit", func() {
			in := idleLane(r)
			in.slack.insert(0, run{fl: stray, n: 1})
			in.slack.insert(1, run{fl: stray, n: 1})
			in.fill += 2
		})
	})
	t.Run("slack-ring", func(t *testing.T) {
		r := build()
		mustWormfail(t, r, "power-of-two", func() {
			q := &idleLane(r).slack
			q.grow()
			q.grow()
			q.runs = q.runs[:3]
		})
	})
}

package network

import (
	"fmt"
	"reflect"
	"testing"

	"wormlan/internal/flit"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
)

// slotPipe is the obviously-correct pipeline the run ring is held to: one
// flit per byte-time slot, indexed by send tick mod delay, and a bit per
// slot saying it is occupied — the representation links had before runs.
type slotPipe struct {
	d    int64
	fl   []flit.Flit
	occ  []bool
	sent []int64 // each occupied slot's send tick
}

func (p *slotPipe) send(t int64, fl flit.Flit) {
	s := t % p.d
	p.fl[s], p.occ[s], p.sent[s] = fl, true, t
}

// deliver empties the slot due at tick t.
func (p *slotPipe) deliver(t int64) (flit.Flit, bool) {
	s := t % p.d
	fl, ok := p.fl[s], p.occ[s]
	p.fl[s], p.occ[s] = flit.Flit{}, false
	return fl, ok
}

// corrupt marks the clean payload flit in the lowest occupied slot Bad.
func (p *slotPipe) corrupt() bool {
	for s, fl := range p.fl {
		if p.occ[s] && fl.Kind == flit.Payload && !fl.Bad {
			p.fl[s].Bad = true
			return true
		}
	}
	return false
}

// kill empties every slot, returning the flits in slot order.
func (p *slotPipe) kill() (lost []flit.Flit) {
	for s, fl := range p.fl {
		if p.occ[s] {
			lost = append(lost, fl)
			p.fl[s], p.occ[s] = flit.Flit{}, false
		}
	}
	return lost
}

// due is the window cap a receiver wanting want (a nil worm absorbs
// nothing) puts on n unfed ticks from now; bubbles says empty slots are
// absorbed.
func (p *slotPipe) due(now, n int64, want flit.Flit, bubbles bool) int64 {
	for k := int64(0); k < min(n, p.d); k++ {
		if s := (now + k) % p.d; p.occ[s] && (want.W == nil || p.fl[s] != want) || !p.occ[s] && !bubbles {
			return k
		}
	}
	if n > p.d && !bubbles {
		return p.d
	}
	return n
}

// dropLog records the fabric's EvDropped events, in order.
type dropLog []int64

func (d *dropLog) Record(e trace.Event) {
	if e.Kind == trace.EvDropped {
		*d = append(*d, e.Worm)
	}
}

// pipeDelays are the cable delays FuzzPipeVsSlots draws from.
var pipeDelays = [...]int64{1, 2, 7, 64, 300, 1000}

// FuzzPipeVsSlots holds the run-length pipeline of one switch-to-switch
// link against slotPipe.  A tape of up to 64 two-byte operations drives
// both: ticks (deliver, then send a flit or nothing), runs of such ticks,
// a fast-forward shift (fed or not), the due-window cap of an unbound or
// bound receiving lane, CorruptOnLink, and the fabric's killLink and
// reviveLink.  After every operation the two must agree on the delivered
// flits, the window cap and delivered count, the corrupted flit's send
// tick (through the slot contents), the order of dropped worms, the flit
// and drop counters, every slot's occupancy and flit, and inFlight.
func FuzzPipeVsSlots(f *testing.F) {
	f.Add(uint8(0), []byte{0, 200, 8, 100, 2, 9, 3, 0, 1, 4, 6, 40, 14, 40, 2, 200})
	f.Add(uint8(3), []byte{16, 40, 1, 3, 0, 30, 1, 7, 24, 60, 3, 0, 3, 0, 4, 0, 0, 20, 5, 0, 0, 40})
	f.Add(uint8(4), []byte{8, 255, 1, 1, 8, 255, 3, 0, 6, 10, 22, 30, 2, 80, 4, 0, 1, 6, 5, 0, 8, 255})
	f.Add(uint8(5), []byte{0, 255, 32, 255, 1, 2, 16, 255, 3, 0, 3, 0, 2, 255, 14, 120, 4, 0, 5, 0, 2, 255})
	f.Add(uint8(1), []byte{8, 9, 1, 4, 16, 3, 3, 0, 4, 0, 1, 8, 5, 0, 0, 3, 10, 1})
	f.Fuzz(func(t *testing.T, delay uint8, tape []byte) {
		d := pipeDelays[int(delay)%len(pipeDelays)]
		var drops dropLog
		r := newRig(t, topology.Line(2, d), Config{NumVCs: 2, Recorder: &drops})
		fab := r.f
		var l *dlink
		for _, c := range fab.links {
			if fab.sw[c.srcNode] != nil && fab.sw[c.dstNode] != nil {
				l = c
			}
		}
		dst := fab.sw[l.dstNode]
		worms := []*flit.Worm{{ID: 1}, {ID: 2}}
		// pick maps a byte to a flit: mostly payload of two worms on two
		// lanes (so runs form and break), some headers and tails, and
		// nothing (a bubble) for 0–3.
		pick := func(b byte) (flit.Flit, bool) {
			if b < 4 {
				return flit.Flit{}, false
			}
			fl := flit.Flit{W: worms[b&1], Tag: flit.Tag{Kind: flit.Payload, VC: b >> 1 & 1}}
			switch b >> 2 % 8 {
			case 5, 6:
				fl.Kind, fl.B = flit.Header, b
			case 7:
				fl.Kind = flit.Tail
			}
			return fl, true
		}
		p := &slotPipe{d: d, fl: make([]flit.Flit, d), occ: make([]bool, d), sent: make([]int64, d)}
		var now int64
		var dropped int64
		var wantDrops []int64
		var aborted [3]bool // by worm ID: dropWorm's RxAborted mark
		lose := func(fl flit.Flit) {
			dropped++
			if fl.W != nil && !aborted[fl.W.ID] {
				aborted[fl.W.ID] = true
				wantDrops = append(wantDrops, fl.W.ID)
			}
		}
		tick := func(fl flit.Flit, send bool) {
			l.cls.slot = int(now % d)
			want, wok := p.deliver(now)
			l.deliver(now)
			var got flit.Flit
			gok := false
			for v := range l.dstIns {
				if in := &l.dstIns[v]; in.fill > 0 {
					got, gok = in.pop(), true
					dst.routeIns.clear(in.idx)
				}
			}
			if gok != wok || got != want {
				t.Fatalf("t=%d: delivered %v (%v), slots deliver %v (%v)", now, got, gok, want, wok)
			}
			if send {
				if l.dead {
					if fl.Kind == flit.Tail {
						lose(fl)
					} else {
						dropped++
					}
				} else {
					p.send(now, fl)
				}
				l.send(now, fl)
			}
			now++
		}
		for i := 0; i+2 <= len(tape) && i < 128; i += 2 {
			op, x := tape[i], tape[i+1]
			switch op % 8 {
			case 0: // a run of ticks sending one flit (or nothing)
				fl, send := pick(op)
				for k := 0; k <= int(x); k++ {
					tick(fl, send)
				}
			case 1: // one tick
				tick(pick(x))
			case 2: // fast-forward shift
				if l.dead {
					break
				}
				n := 1 + int64(x)*8
				fed := op>>3&1 != 0
				feed := flit.Flit{W: worms[op>>4&1], Tag: flit.Tag{Kind: flit.Payload, VC: op >> 5 & 1}}
				fab.feed[l.id] = feed
				got, at := l.shift(now, n, fed)
				wantGot, wantAt := 0, int64(-1)
				for k := int64(0); k < n; k++ {
					if _, ok := p.deliver(now + k); ok {
						wantGot, wantAt = wantGot+1, k
					}
					if fed {
						p.send(now+k, feed)
						wantAt = k
					}
				}
				if got != wantGot || at != wantAt {
					t.Fatalf("t=%d: shift(%d, fed=%v) = %d, %d; slots %d, %d", now, n, fed, got, at, wantGot, wantAt)
				}
				now += n
			case 3:
				want := p.corrupt()
				if got := fab.CorruptOnLink(l.id); got != want {
					t.Fatalf("t=%d: CorruptOnLink = %v, slots %v", now, got, want)
				}
			case 4:
				if l.dead {
					break
				}
				for _, fl := range p.kill() {
					lose(fl)
				}
				fab.killLink(l)
				for _, w := range worms {
					w.RxAborted, aborted[w.ID] = false, false
				}
			case 5:
				if l.dead {
					fab.reviveLink(l)
				}
			case 6: // the due-window cap, unbound or bound to one lane
				n := 1 + int64(x)*8
				var want flit.Flit
				if op&8 != 0 {
					in := &l.dstIns[op>>4&1]
					in.worm = worms[op>>5&1]
					want = flit.Flit{W: in.worm, Tag: flit.Tag{Kind: flit.Payload, VC: in.vc}}
					dst.boundIns.set(in.idx)
				}
				got := l.dueCap(now, n, false)
				wantN := int64(0)
				if !l.dead {
					wantN = p.due(now, n, want, want.W == nil)
				}
				clear(dst.boundIns.words)
				if got != wantN {
					t.Fatalf("t=%d: dueCap(%d) = %d, slots %d", now, n, got, wantN)
				}
			}
			if !reflect.DeepEqual([]int64(drops), wantDrops) || fab.ctr.FlitsDropped != dropped {
				t.Fatalf("t=%d: dropped worms %v (%d flits), slots %v (%d)", now, drops, fab.ctr.FlitsDropped, wantDrops, dropped)
			}
			if err := samePipe(l, p); err != nil {
				t.Fatalf("t=%d after op %d: %v", now, op%8, err)
			}
		}
	})
}

// samePipe compares every slot of l with p: occupancy (the arrival bits),
// the flit held and its send tick, and the in-flight counts.
func samePipe(l *dlink, p *slotPipe) error {
	fl := make([]flit.Flit, p.d)
	sent := make([]int64, p.d)
	n := 0
	for i := 0; i < int(l.nruns); i++ {
		r := l.at(i)
		for t := r.t; t < r.t+r.n; t++ {
			fl[t%p.d], sent[t%p.d] = r.fl, t
			n++
		}
	}
	for s := range fl {
		if l.occupied(s) != p.occ[s] {
			return fmt.Errorf("slot %d occupied %v, slots %v", s, l.occupied(s), p.occ[s])
		}
		if p.occ[s] && (fl[s] != p.fl[s] || sent[s] != p.sent[s]) {
			return fmt.Errorf("slot %d holds %v sent at %d, slots %v sent at %d", s, fl[s], sent[s], p.fl[s], p.sent[s])
		}
	}
	occ := 0
	for _, o := range p.occ {
		if o {
			occ++
		}
	}
	if n != occ || l.inFlight != occ || l.f.inFlight != occ {
		return fmt.Errorf("runs hold %d flits, inFlight %d (fabric %d), slots %d", n, l.inFlight, l.f.inFlight, occ)
	}
	return nil
}

package network

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"wormlan/internal/flit"
	"wormlan/internal/topology"
)

// cellSlack is the obviously-correct slack buffer the run ring is held to:
// one cell per flit of capacity, in a ring — the representation slack
// buffers had before runs.
type cellSlack struct {
	cells      []flit.Flit
	head, fill int
}

func (c *cellSlack) receive(fl flit.Flit) {
	c.cells[(c.head+c.fill)%len(c.cells)] = fl
	c.fill++
}

func (c *cellSlack) pop() flit.Flit {
	fl := c.cells[c.head]
	c.cells[c.head] = flit.Flit{}
	c.head = (c.head + 1) % len(c.cells)
	c.fill--
	return fl
}

func (c *cellSlack) peek() flit.Flit { return c.cells[c.head] }

func (c *cellSlack) newest() flit.Flit { return c.cells[(c.head+c.fill-1)%len(c.cells)] }

// badTail appends bad, overwriting the newest flit of a full buffer; it
// reports whether a flit was lost.
func (c *cellSlack) badTail(bad flit.Flit) bool {
	if c.fill == len(c.cells) {
		c.cells[(c.head+c.fill-1)%len(c.cells)] = bad
		return true
	}
	c.receive(bad)
	return false
}

// drain removes every flit, returning them oldest first.
func (c *cellSlack) drain() (lost []flit.Flit) {
	for c.fill > 0 {
		lost = append(lost, c.pop())
	}
	return lost
}

// slackDelays are the trunk delays FuzzSlackVsCells draws from; with
// StopMark 4 the slack buffers hold 6, 8, 18, 132 and 2 004 flits.
var slackDelays = [...]int64{1, 2, 7, 64, 1000}

// FuzzSlackVsCells holds the run-length slack buffer of one switch lane
// against cellSlack.  A tape of up to 64 two-byte operations drives both:
// receives (one flit, or a stretch of copies up to the buffer's size),
// pops, peek and newest, appendBadTail (overwriting the newest flit when
// the buffer is full), wipeSwitch and reset.  After every operation the
// two must agree on the flits read, fill, every flit held (oldest first),
// FlitsDropped, and the order of the EvDropped events.
func FuzzSlackVsCells(f *testing.F) {
	f.Add(uint8(0), []byte{8, 9, 2, 0, 4, 0, 3, 0, 16, 3, 4, 1, 2, 9, 5, 0})
	f.Add(uint8(2), []byte{0, 20, 1, 40, 0, 20, 3, 0, 4, 1, 4, 0, 3, 0, 2, 3, 6, 0, 0, 9})
	f.Add(uint8(1), []byte{1, 5, 1, 6, 1, 7, 1, 28, 0, 2, 4, 0, 4, 1, 3, 0, 5, 0, 1, 5})
	f.Add(uint8(3), []byte{0, 255, 8, 200, 4, 1, 2, 100, 1, 30, 4, 0, 5, 0, 0, 60, 6, 0})
	f.Add(uint8(4), []byte{0, 255, 16, 255, 24, 255, 4, 0, 3, 0, 2, 255, 5, 0, 3, 0})
	f.Add(uint8(1), []byte{0, 2, 1, 1, 1, 0, 5, 0, 1, 3, 1, 2, 4, 0, 5, 0})
	f.Fuzz(func(t *testing.T, delay uint8, tape []byte) {
		d := slackDelays[int(delay)%len(slackDelays)]
		var drops dropLog
		r := newRig(t, topology.Line(2, d), Config{StopMark: 4, GoMark: 2, Recorder: &drops})
		fab := r.f
		var in *inPort
		for _, l := range fab.links {
			if fab.sw[l.srcNode] != nil && fab.sw[l.dstNode] != nil {
				in = &l.dstIns[0]
			}
		}
		c := &cellSlack{cells: make([]flit.Flit, in.cap)}
		worms := []*flit.Worm{{ID: 1}, {ID: 2}}
		// pick maps a byte to a flit: mostly payload of two worms on two
		// lanes (so runs form and break), some headers, tails and Bad
		// flits.
		pick := func(b byte) flit.Flit {
			fl := flit.Flit{W: worms[b&1], Tag: flit.Tag{Kind: flit.Payload, VC: b >> 1 & 1}}
			switch b >> 2 % 8 {
			case 4:
				fl.Bad = true
			case 5, 6:
				fl.Kind, fl.B = flit.Header, b
			case 7:
				fl.Kind = flit.Tail
			}
			return fl
		}
		var dropped int64
		var wantDrops []int64
		var aborted [3]bool // by worm ID: dropWorm's RxAborted mark
		lose := func(lost []flit.Flit) {
			for _, fl := range lost {
				dropped++
				if id := fl.W.ID; !aborted[id] {
					aborted[id] = true
					wantDrops = append(wantDrops, id)
				}
			}
		}
		for i := 0; i+2 <= len(tape) && i < 128; i += 2 {
			op, x := tape[i], tape[i+1]
			switch op % 8 {
			case 0: // a stretch of copies, up to a full buffer
				fl := pick(op)
				for k := 0; k <= int(x) && c.fill < len(c.cells); k++ {
					c.receive(fl)
					in.receive(fl)
				}
			case 1:
				if c.fill < len(c.cells) {
					c.receive(pick(x))
					in.receive(pick(x))
				}
			case 2: // pops
				for k := 0; k <= int(x) && c.fill > 0; k++ {
					if got, want := in.pop(), c.pop(); got != want {
						t.Fatalf("op %d: pop = %v, cells %v", i/2, got, want)
					}
				}
			case 3:
				if c.fill > 0 && (in.peek() != c.peek() || in.newest() != c.newest()) {
					t.Fatalf("op %d: peek/newest = %v/%v, cells %v/%v", i/2, in.peek(), in.newest(), c.peek(), c.newest())
				}
			case 4:
				w := worms[x&1]
				if c.badTail(flit.Flit{W: w, Tag: flit.Tag{Kind: flit.Tail, Bad: true}}) {
					dropped++
				}
				fab.appendBadTail(in, w)
			case 5:
				lose(c.drain())
				fab.wipeSwitch(fab.sw[in.sw.node])
			case 6:
				c.drain()
				in.reset()
			}
			if op%8 == 5 {
				for _, w := range worms {
					w.RxAborted, aborted[w.ID] = false, false
				}
			}
			if err := sameSlack(in, c); err != nil {
				t.Fatalf("op %d (%d): %v", i/2, op%8, err)
			}
			if !reflect.DeepEqual([]int64(drops), wantDrops) || fab.ctr.FlitsDropped != dropped {
				t.Fatalf("op %d: dropped worms %v (%d flits), cells %v (%d)", i/2, drops, fab.ctr.FlitsDropped, wantDrops, dropped)
			}
		}
	})
}

// sameSlack compares in's runs, expanded oldest first, and fill with c.
func sameSlack(in *inPort, c *cellSlack) error {
	var got []flit.Flit
	for i := 0; i < int(in.slack.nruns); i++ {
		r := in.slack.at(i)
		for k := int64(0); k < r.n; k++ {
			got = append(got, r.fl)
		}
	}
	if in.fill != c.fill || len(got) != c.fill {
		return fmt.Errorf("fill %d with %d flits in runs, cells %d", in.fill, len(got), c.fill)
	}
	for k, fl := range got {
		if want := c.cells[(c.head+k)%len(c.cells)]; fl != want {
			return fmt.Errorf("flit %d is %v, cells %v", k, fl, want)
		}
	}
	return nil
}

// TestRunShape keeps run register-sized, as flit.TestFlitShape keeps
// Flit: at most four fields and four words.  A wider run would make every
// send, receive and pop copy it through memory, a bulk copy with write
// barriers (runtime.wbMove) and a reload that misses store-to-load
// forwarding.
func TestRunShape(t *testing.T) {
	rt := reflect.TypeOf(run{})
	if rt.NumField() > 4 || rt.Size() > 4*unsafe.Sizeof(uintptr(0)) {
		t.Fatalf("run has %d fields in %d bytes: Go's SSA backend keeps only structs of at most four fields "+
			"and four words in registers, so every run copy would go through memory", rt.NumField(), rt.Size())
	}
}

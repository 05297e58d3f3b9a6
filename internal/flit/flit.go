// Package flit defines the unit of information transfer in the wormhole
// network: worms and the byte-sized flits they are made of.
//
// A worm (Section 2 of the paper) is a variable-length message, up to 9 KB
// in Myrinet, consisting of a source-route header, a payload, and a tail
// marker.  The simulator models the network at the byte level: one flit is
// one byte on the wire, and a flit takes one byte-time (12.5 ns at
// 640 Mb/s) to cross a link stage.
package flit

import (
	"fmt"

	"wormlan/internal/des"
	"wormlan/internal/topology"
)

// MaxWormSize is the largest worm the LANai control program allows (9 KB).
const MaxWormSize = 9 * 1024

// Kind classifies a flit.
type Kind uint8

// Flit kinds.
const (
	// Header flits carry source-route bytes, consumed or rewritten by
	// switches.
	Header Kind = iota
	// Payload flits carry message data (content is not modelled).
	Payload
	// Tail marks the end of the worm; forwarding state is torn down when
	// it passes.  It models Myrinet's end-of-packet control symbol plus
	// the recomputed checksum trailer.
	Tail
	// Hello is a liveness probe (one control symbol on the wire, W is
	// nil).  Hellos are consumed at the receiving port — they never enter
	// slack buffers or reassemblers — and exist only so the liveness
	// protocol shares links, and therefore congestion, with data worms.
	Hello
)

// String returns a single-letter mnemonic (H/P/T/L).
func (k Kind) String() string {
	switch k {
	case Header:
		return "H"
	case Payload:
		return "P"
	case Tail:
		return "T"
	case Hello:
		return "L"
	default:
		return "?"
	}
}

// Mode is the routing mode of a worm, dispatched on by switch input ports.
// (Real hardware would carry this as a packet-type byte; the simulator
// stores it in worm metadata for convenience.)
type Mode uint8

// Worm routing modes.
const (
	// Unicast worms carry a port-list header, one byte stripped per switch.
	Unicast Mode = iota
	// MulticastTree worms carry the linearized tree header of Figure 2 and
	// are replicated inside switches.
	MulticastTree
	// Broadcast worms carry a unicast route to the up/down root followed
	// by the broadcast pseudo-port (Section 3).
	Broadcast
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Unicast:
		return "unicast"
	case MulticastTree:
		return "multicast-tree"
	case Broadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Worm is one message in flight.  The same Worm is referenced by every flit
// of every replica; per-branch state lives in the fabric, not here.
type Worm struct {
	// ID is unique per injected worm (retransmissions reuse it so that
	// statistics can track end-to-end delivery).
	ID int64
	// Src is the originating host.
	Src topology.NodeID
	// Dst is the destination host for unicast worms; for multicast worms
	// it is the next-hop host at the adapter level, or None for
	// switch-level multicast.
	Dst topology.NodeID
	// Mode selects the switch forwarding behaviour.
	Mode Mode
	// Group is the multicast group ID, or -1 for pure unicast traffic.
	Group int
	// Header is the source-route header at injection time.
	Header []byte
	// PayloadLen is the number of payload bytes.
	PayloadLen int

	// Created is when the worm was generated (for end-to-end latency);
	// Injected is when its head flit first entered the network.
	Created, Injected des.Time

	// Epoch is the fabric topology epoch at injection time.  A worm whose
	// epoch is behind the fabric's current epoch carries a source route
	// computed before a failure; the fabric counts (rather than silently
	// mis-delivers) such stale worms when their route hits a dead link.
	Epoch int64

	// Meta carries adapter- or application-level context through the
	// fabric untouched.
	Meta any

	// RxProgress counts payload flits delivered so far at the receiving
	// host interface, and RxDone is set when reception completes.  A host
	// adapter forwarding this worm in cut-through mode paces the outgoing
	// copy against these (see PaceFrom).
	RxProgress int
	RxDone     bool

	// PaceFrom, when non-nil, marks this worm as a cut-through forward of
	// a still-arriving upstream worm: the host interface transmits payload
	// byte i only once PaceFrom.RxProgress exceeds i, and the tail only
	// once PaceFrom.RxDone — a retransmission cannot outrun its reception.
	PaceFrom *Worm

	// RxAborted is the fabric's drop mark: set the first time a copy of
	// this worm is lost (truncated by a link or switch failure, discarded
	// as corrupt), it is what counts the worm once in WormsDropped however
	// many paths notice the loss, and what identifies leftover flits of a
	// torn-down worm.  A cut-through forward paced against an aborted worm
	// can never finish and must itself be aborted.
	RxAborted bool
}

// WireSize returns the number of flits the worm occupies on the wire at
// injection: header + payload + tail.
func (w *Worm) WireSize() int { return len(w.Header) + w.PayloadLen + 1 }

// Validate checks worm invariants before injection.
func (w *Worm) Validate() error {
	if len(w.Header) == 0 {
		return fmt.Errorf("flit: worm %d has empty header", w.ID)
	}
	if w.PayloadLen < 0 {
		return fmt.Errorf("flit: worm %d has negative payload", w.ID)
	}
	if w.WireSize() > MaxWormSize {
		return fmt.Errorf("flit: worm %d wire size %d exceeds LANai limit %d",
			w.ID, w.WireSize(), MaxWormSize)
	}
	return nil
}

// Flit is one byte on the wire: the worm it belongs to and its Tag.
//
// Flit keeps at most four top-level fields, and TestFlitShape pins that.
// Go's SSA backend decomposes a struct of at most four fields (each
// SSA-able itself) into registers; a fifth field makes every Flit copy a
// memory move through a stack temporary, with a write-barriered bulk copy
// (runtime.wbMove) into heap cells and a 16-byte reload that misses
// store-to-load forwarding.  The relay path copies every flit from link
// to slack to link, and with five fields that reload was the hottest
// instruction of a contended-torus profile.  New one-byte fields go into
// Tag.
type Flit struct {
	// W is the worm this flit belongs to.
	W *Worm
	Tag
}

// Tag is a flit's one-byte fields, embedded in Flit so fl.Kind, fl.B,
// fl.VC and fl.Bad read and write as Flit fields.
type Tag struct {
	// Kind classifies the flit.
	Kind Kind
	// B is the header byte value; meaningful only when Kind == Header.
	B byte
	// VC is the virtual-channel lane this flit travels on.  Physically it
	// models the lane tag in the channel-symbol encoding (each flit on a
	// multi-lane link is framed with its lane id, as in multi-VC wormhole
	// routers); lane 0 on every single-lane fabric, so the zero value is
	// the pre-VC wire format.
	VC uint8
	// Bad marks a damaged flit.  A Bad payload flit models wire corruption
	// (the receiving host discards the worm on checksum failure); a Bad
	// tail is the fabric's forward-reset marker, synthesized to terminate a
	// worm truncated by a link or switch failure so that downstream state
	// tears down instead of waiting forever.
	Bad bool
}

// String renders the flit for traces.
func (f Flit) String() string {
	if f.W == nil {
		return "<empty>"
	}
	if f.Kind == Header {
		return fmt.Sprintf("w%d:H[%d]", f.W.ID, f.B)
	}
	return fmt.Sprintf("w%d:%s", f.W.ID, f.Kind)
}

// Stream generates a worm's flits one at a time, given the header bytes to
// emit (which may differ from w.Header downstream of a multicast stamp).
type Stream struct {
	W       *Worm
	header  []byte
	hi      int // next header byte index
	payload int // payload flits remaining
	sent    int // flits emitted so far
	done    bool
}

// NewStream returns a flit stream for the worm carrying the given header
// bytes, followed by the worm's payload and a tail flit.
func NewStream(w *Worm, header []byte) *Stream {
	s := new(Stream)
	s.Reset(w, header)
	return s
}

// Reset reinitializes the stream in place for the given worm and header,
// so a long-lived Stream (e.g. one embedded in a host interface) can be
// reused across worms without allocating.  It assigns field by field: a
// whole-struct store of the six fields would go through runtime.wbMove.
func (s *Stream) Reset(w *Worm, header []byte) {
	s.W, s.header = w, header
	s.hi, s.payload, s.sent, s.done = 0, w.PayloadLen, 0, false
}

// Next returns the next flit of the stream.  ok is false when the stream is
// exhausted (the previous flit was the tail).
func (s *Stream) Next() (f Flit, ok bool) {
	switch {
	case s.done:
		return Flit{}, false
	case s.hi < len(s.header):
		f = Flit{W: s.W, Tag: Tag{Kind: Header, B: s.header[s.hi]}}
		s.hi++
	case s.payload > 0:
		f = Flit{W: s.W, Tag: Tag{Kind: Payload}}
		s.payload--
	default:
		f = Flit{W: s.W, Tag: Tag{Kind: Tail}}
		s.done = true
	}
	s.sent++
	return f, true
}

// Started reports whether the stream has emitted at least one flit — i.e.
// whether aborting it requires a terminating tail on the wire.
func (s *Stream) Started() bool { return s.sent > 0 }

// PayloadRun returns the number of payload flits the stream will emit
// before its next non-payload flit: the length of the pure-payload prefix
// of its remaining output.  Zero when the next flit is a header byte or
// the tail.  Worm fast-forward (network.Fabric.Skip) uses it to bound how
// many ticks of this stream can be advanced in one step.
func (s *Stream) PayloadRun() int {
	if s.done || s.hi < len(s.header) {
		return 0
	}
	return s.payload
}

// Advance emits n payload flits in one step, as if Next had been called n
// times during a pure-payload run.  The caller must ensure n <=
// PayloadRun(); every skipped flit is a clean payload flit of s.W.
func (s *Stream) Advance(n int) {
	if n > s.payload {
		panic(fmt.Sprintf("flit: Advance(%d) beyond payload run %d of worm %d", n, s.payload, s.W.ID))
	}
	s.payload -= n
	s.sent += n
}

// Remaining returns how many flits the stream will still produce.
func (s *Stream) Remaining() int {
	if s.done {
		return 0
	}
	return (len(s.header) - s.hi) + s.payload + 1
}

// CanSend reports whether the next flit may be transmitted given the
// worm's cut-through pacing source (nil means unpaced: always sendable
// until exhausted).  Header flits are always available (the adapter knows
// the route before the payload arrives); payload byte i needs i <
// from.RxProgress; the tail needs complete upstream reception.
func (s *Stream) CanSend(from *Worm) bool {
	if s.done {
		return false
	}
	if from == nil {
		return true
	}
	switch {
	case s.hi < len(s.header):
		return true
	case s.payload > 0:
		sent := s.W.PayloadLen - s.payload
		return sent < from.RxProgress
	default:
		return from.RxDone
	}
}

// WormPool is a free-list of Worm structs for traffic layers that inject
// and retire worms at high rate.  It is a plain slice, not a sync.Pool:
// reuse order is deterministic and nothing is dropped by the garbage
// collector, so pooling cannot perturb a replayed run.
//
// Ownership rules (DESIGN.md §12): the fabric never takes ownership of a
// worm — only the layer that allocated (or Got) a worm may Put it back,
// and only once the worm is fully retired: delivered (or abandoned) at
// every destination, not the PaceFrom source of any live cut-through
// forward, and never in a run where a fault may have touched it.  The
// fabric's drop accounting keys on the RxAborted mark, which Get zeroes,
// so a recycled worm is counted afresh; but leftover flits of a dropped
// worm may still be in the fabric, which recognizes them by that mark,
// and recycling the worm would erase it.
type WormPool struct {
	free []*Worm
}

// Get returns a zeroed worm, reusing a retired one when available.
func (p *WormPool) Get() *Worm {
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		*w = Worm{}
		return w
	}
	//wormlint:alloc pool miss: the worm joins the free-list when retired
	return new(Worm)
}

// Put retires a worm to the pool.  See the ownership rules on WormPool.
func (p *WormPool) Put(w *Worm) { p.free = append(p.free, w) }

// Reassembler collects the flits of one incoming worm at a host interface
// and reports completion.  Worms never interleave at a host: a flit of a
// second worm before the first's tail is an error.
type Reassembler struct {
	w        *Worm
	payload  int
	headerIn int
	// Corrupt is set when any fed flit carried the Bad mark; the worm must
	// be discarded on completion (checksum failure at the receiver).
	Corrupt bool
}

// Feed consumes one flit.  done is true when a tail flit arrives.
func (r *Reassembler) Feed(f Flit) (done bool, err error) {
	if r.w == nil {
		r.w = f.W
	} else if r.w != f.W {
		return false, fmt.Errorf("flit: interleaved worms %d and %d at reassembler", r.w.ID, f.W.ID)
	}
	if f.Bad {
		r.Corrupt = true
	}
	//wormlint:partial hello flits are consumed at switch input ports and never reach a host reassembler
	switch f.Kind {
	case Header:
		r.headerIn++
	case Payload:
		r.payload++
	case Tail:
		return true, nil
	}
	return false, nil
}

// Worm returns the worm being reassembled (nil before the first flit).
func (r *Reassembler) Worm() *Worm { return r.w }

// AdvancePayload records n payload arrivals in one step, as if Feed had
// been called n times with clean payload flits of the current worm.  Used
// by worm fast-forward; the reassembler must already have a worm.
func (r *Reassembler) AdvancePayload(n int) {
	if r.w == nil {
		panic("flit: AdvancePayload on idle reassembler")
	}
	r.payload += n
}

// Complete reports whether every payload byte of the worm has arrived.
func (r *Reassembler) Complete() bool {
	return r.w != nil && r.payload >= r.w.PayloadLen
}

// Reset prepares the reassembler for the next worm.
func (r *Reassembler) Reset() { *r = Reassembler{} }

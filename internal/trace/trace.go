// Package trace is the simulator's deterministic observability layer:
// worm-lifecycle event tracing and fabric metrics, zero-cost when disabled.
//
// The paper's figures are aggregates (mean latency, throughput per host),
// but diagnosing *why* a worm stalled — STOP/GO backpressure, the
// serializing pre-hop of a totally ordered circuit, a reservation NACK —
// needs the event stream underneath the aggregate.  This package defines
// that stream.  Every event is keyed by the des.Time at which it happened
// and recorded synchronously from inside the simulation tick, so a trace
// is as reproducible as the run that produced it: two runs of the same
// seeded configuration yield byte-identical exported traces.
//
// Determinism rules for recorders (enforced for this package by wormlint,
// see DESIGN.md §10):
//
//   - A Recorder must not read the wall clock, draw randomness, or range
//     over a map while recording or exporting; order and content must be a
//     function of the recorded events alone.
//   - Record is called from inside the simulation tick and must not
//     mutate simulation state; recorders are passive sinks.
//   - Recorders are not safe for concurrent use.  The sweep engine runs
//     whole simulations in parallel: give each run its own recorder.
package trace

import (
	"fmt"

	"wormlan/internal/des"
	"wormlan/internal/topology"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds.  Span events open or close a worm's lifecycle interval;
// instant events mark protocol moments inside it.
const (
	// EvOriginate: a multicast transfer was created at its origin host
	// (Worm is the transfer ID; Arg is the payload length).
	EvOriginate Kind = iota
	// EvInject: a worm was handed to a host network interface for
	// transmission (Arg is the wire size in flits).  Opens the worm span.
	EvInject
	// EvHeadAtSwitch: a worm's header flit reached a switch input port and
	// route decoding began.
	EvHeadAtSwitch
	// EvBlocked: output arbitration failed for a routed worm head; the worm
	// holds its path and waits (wormhole blocking).
	EvBlocked
	// EvResumed: a previously blocked worm head was granted its outputs.
	EvResumed
	// EvTailDrained: the worm's tail left a switch; its crossbar bindings
	// were released.
	EvTailDrained
	// EvDelivered: a host interface completed reassembly of the worm
	// (Arg is always 1).  Closes the worm span at that leaf.
	EvDelivered
	// EvDropped: a worm copy was lost to a failure or corruption.  Closes
	// the worm span.
	EvDropped
	// EvStop: a switch input port's slack crossed the STOP mark and raised
	// STOP on its reverse channel (Arg is the slack fill).
	EvStop
	// EvGo: the slack drained to the GO mark and STOP was released
	// (Arg is the slack fill).
	EvGo
	// EvAck: a host adapter accepted a data worm and sent an ACK
	// (Arg is the transfer ID).
	EvAck
	// EvNack: a host adapter rejected a data worm for lack of buffer space
	// and sent a NACK (Arg is the transfer ID).
	EvNack
	// EvRetransmit: a hop was retransmitted after a NACK backoff or an ACK
	// timeout (Worm is 0 — the retry draws a fresh worm ID at injection —
	// and Arg is the transfer ID).
	EvRetransmit
	// EvHelloSent: a liveness hello flit was placed on a directional link
	// (Node/Port are the sending end; Arg is the link index).
	EvHelloSent
	// EvHelloMissed: a liveness endpoint's hello deadline expired (Node/Port
	// are the receiving end; Arg is the consecutive-miss count).
	EvHelloMissed
	// EvPeerDown: the liveness monitor declared the peer behind (Node, Port)
	// down after the detect-multiplier of misses (Arg is 1 when the verdict
	// is a false positive — the link was merely congested, not dead).
	EvPeerDown
	// EvPeerUp: the liveness monitor re-admitted the peer behind (Node,
	// Port) after its hold-down window (Arg is the hold duration served).
	EvPeerUp
	// EvFlapSuppressed: hellos reappeared on a down endpoint but stopped
	// again before the hold-down matured; the re-admission was cancelled
	// (Node/Port are the receiving end).
	EvFlapSuppressed
	// EvRetransmitBackoff: a host adapter armed a retry timer (Worm is the
	// transfer ID, Arg is the backoff delay in byte-times; Port is 0 for an
	// ACK-timeout timer, 1 for a NACK backoff).
	EvRetransmitBackoff
)

var kindNames = [...]string{
	EvOriginate:         "originate",
	EvInject:            "inject",
	EvHeadAtSwitch:      "head-at-switch",
	EvBlocked:           "blocked",
	EvResumed:           "resumed",
	EvTailDrained:       "tail-drained",
	EvDelivered:         "delivered",
	EvDropped:           "dropped",
	EvStop:              "stop",
	EvGo:                "go",
	EvAck:               "ack",
	EvNack:              "nack",
	EvRetransmit:        "retransmit",
	EvHelloSent:         "hello-sent",
	EvHelloMissed:       "hello-missed",
	EvPeerDown:          "peer-down",
	EvPeerUp:            "peer-up",
	EvFlapSuppressed:    "flap-suppressed",
	EvRetransmitBackoff: "retransmit-backoff",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one observation.  The zero NodeID-valued fields use
// topology.None / -1 when not applicable.
type Event struct {
	// At is the simulation time of the event in byte-times.
	At des.Time
	// Kind classifies the event.
	Kind Kind
	// Node is where it happened: a switch for port events, a host for
	// inject/deliver/ACK events, topology.None when unlocated (drops).
	Node topology.NodeID
	// Port is the switch port index, or -1 when not applicable.
	Port int
	// Worm is the worm ID the event concerns (EvOriginate: the transfer
	// ID), or 0 when none.
	Worm int64
	// Arg carries kind-specific detail; see the Kind constants.
	Arg int64
}

// String renders the event as one trace line.
func (e Event) String() string {
	return fmt.Sprintf("t=%d %s node=%d port=%d worm=%d arg=%d",
		e.At, e.Kind, e.Node, e.Port, e.Worm, e.Arg)
}

// Recorder receives the event stream of one simulation run.
//
// The fabric and adapters call Record synchronously from inside the
// simulation tick, so implementations must be cheap and must follow the
// package-level determinism rules.
type Recorder interface {
	Record(e Event)
}

// Nop is the no-op recorder: every instrumentation site treats a nil
// Recorder as disabled, but code that wants to pass a non-nil default can
// use Nop.
type Nop struct{}

// Record discards the event.
func (Nop) Record(Event) {}

// Func adapts a function to the Recorder interface.
type Func func(e Event)

// Record invokes the function.
func (f Func) Record(e Event) { f(e) }

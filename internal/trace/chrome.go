package trace

import (
	"bufio"
	"fmt"
	"io"

	"wormlan/internal/des"
)

// WriteChrome serializes an event stream in the Chrome trace-event JSON
// format, loadable in chrome://tracing and https://ui.perfetto.dev.
//
// Mapping:
//
//   - Every worm with an EvInject becomes a complete ("X") duration event
//     on process "worms", one track (tid) per worm ID, spanning injection
//     to its last lifecycle event (delivery or drop; multicast worms close
//     at the last leaf).
//   - Worm-scoped protocol moments (head-at-switch, blocked, resumed,
//     tail-drained, ACK/NACK, retransmit, originate) become instant ("i")
//     events on the same track.
//   - Fabric flow-control moments (STOP, GO) become instant events on
//     process "fabric", one track per switch.
//
// Timestamps are emitted in the trace's microsecond unit but carry
// byte-times verbatim (1 µs shown = 1 byte-time = 12.5 ns of modelled
// wire time); traces compare across runs by byte content.
//
// The output is a pure function of evs: byte-identical for identical
// streams.  Events are expected in record order (as produced by a single
// deterministic run); the exporter preserves that order within each
// section and never consults maps in iteration order, the wall clock, or
// randomness.
func WriteChrome(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)

	// Pass 1: worm spans.  First-seen order keyed off the event stream
	// keeps the output deterministic without sorting.
	type span struct {
		id         int64
		start, end des.Time
		injected   bool
	}
	spanAt := make(map[int64]int)
	var spans []span
	for _, e := range evs {
		if e.Worm == 0 {
			continue
		}
		si, ok := spanAt[e.Worm]
		if !ok {
			si = len(spans)
			spanAt[e.Worm] = si
			spans = append(spans, span{id: e.Worm, start: e.At, end: e.At})
		}
		s := &spans[si]
		if e.At > s.end {
			s.end = e.At
		}
		if e.Kind == EvInject {
			s.injected = true
			s.start = e.At
		}
	}

	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	emit(`{"ph":"M","pid":1,"name":"process_name","args":{"name":"worms"}}`)
	emit(`{"ph":"M","pid":2,"name":"process_name","args":{"name":"fabric"}}`)

	for i := range spans {
		s := &spans[i]
		if !s.injected {
			continue // observed only mid-flight (ring eviction); no span
		}
		dur := s.end - s.start
		if dur < 1 {
			dur = 1 // zero-width spans are invisible in viewers
		}
		emit(`{"ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"cat":"worm","name":"worm %d"}`,
			s.id, s.start, dur, s.id)
	}
	for _, e := range evs {
		switch e.Kind {
		case EvInject:
			// Covered by the span.
		case EvStop, EvGo:
			emit(`{"ph":"i","s":"t","pid":2,"tid":%d,"ts":%d,"cat":"flow","name":%q,"args":{"port":%d,"worm":%d,"arg":%d}}`,
				e.Node, e.At, e.Kind.String(), e.Port, e.Worm, e.Arg)
		default:
			emit(`{"ph":"i","s":"t","pid":1,"tid":%d,"ts":%d,"cat":"worm","name":%q,"args":{"node":%d,"port":%d,"arg":%d}}`,
				e.Worm, e.At, e.Kind.String(), e.Node, e.Port, e.Arg)
		}
	}
	fmt.Fprint(bw, "]}\n")
	return bw.Flush()
}

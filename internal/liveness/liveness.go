// Package liveness implements a BFD-style in-band failure detector for the
// wormhole fabric: every directional link carries periodic hello flits, and
// the receiving end of each link runs a small state machine that declares
// the peer down after a configurable multiplier of missed hellos and
// re-admits it only after a flap-damping hold-down with exponential backoff.
//
// The protocol replaces the fault oracle of internal/fault (which simply
// *knows* when the topology changed) with something the paper's Myrinet
// setting could actually build: adapters and switch control programs
// exchanging liveness probes over the same wires as data.  Because hellos
// share links with data worms under STOP/GO flow control, a congested (not
// dead) link can miss hellos — detection latency, false positives, and
// flapping become measurable protocol outputs rather than modelling
// assumptions.
//
// Determinism: the monitor is driven exclusively from inside the fabric
// tick (HelloSeen / HelloTick), iterates endpoints in construction order,
// draws no randomness, and never reads the wall clock.  Two runs of the
// same seeded configuration produce byte-identical verdict streams.
package liveness

import (
	"fmt"

	"wormlan/internal/des"
	"wormlan/internal/topology"
	"wormlan/internal/trace"
)

// Defaults (byte-times).  At 640 Mb/s one byte-time is 12.5 ns, so the
// default 256-byte-time hello interval is 3.2 µs — aggressive by LAN
// standards but proportionate to worm transmission times in the simulator.
const (
	// DefaultInterval is the hello transmission period per directional link.
	DefaultInterval des.Time = 256
	// DefaultDetectMult is the number of consecutive missed hellos after
	// which the peer is declared down (BFD's detect multiplier).
	DefaultDetectMult = 3
	// DefaultMaxFlapShift caps the exponential growth of the re-admission
	// hold-down: hold = UpHold << min(flaps, MaxFlapShift).
	DefaultMaxFlapShift = 6
)

// Endpoint identifies the receiving end of one directional link: the node
// and port the hellos arrive at, plus the link's propagation delay (which
// the miss deadline must absorb — a hello is not late until interval +
// jitter + delay byte-times after its predecessor).
type Endpoint struct {
	Node  topology.NodeID
	Port  topology.PortID
	Delay des.Time
}

// Config parameterizes the detector.  The zero value of every field selects
// a documented default, so Config{} is a working configuration.
type Config struct {
	// Interval is the hello transmission period (default DefaultInterval).
	Interval des.Time `json:"interval,omitempty"`
	// Jitter is the maximum extra per-hello delay drawn by the sender's
	// seeded rng (default Interval/8).  Jitter desynchronizes the hello
	// phase across links so probe bursts don't self-synchronize.
	Jitter des.Time `json:"jitter,omitempty"`
	// DetectMult is the consecutive misses before a down verdict (default
	// DefaultDetectMult).
	DetectMult int `json:"detectMult,omitempty"`
	// UpHold is the base hold-down: a down endpoint must carry hellos
	// continuously for UpHold << min(flaps, MaxFlapShift) byte-times before
	// it is re-admitted (default 2 * DetectMult * Interval).
	UpHold des.Time `json:"upHold,omitempty"`
	// MaxFlapShift caps the hold-down doubling (default DefaultMaxFlapShift).
	MaxFlapShift int `json:"maxFlapShift,omitempty"`
	// Seed feeds the per-link hello jitter rng.
	Seed uint64 `json:"seed,omitempty"`
}

// WithDefaults returns the config with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	out := c
	if out.Interval <= 0 {
		out.Interval = DefaultInterval
	}
	if out.Jitter <= 0 {
		out.Jitter = out.Interval / 8
	}
	if out.DetectMult <= 0 {
		out.DetectMult = DefaultDetectMult
	}
	if out.UpHold <= 0 {
		out.UpHold = 2 * des.Time(out.DetectMult) * out.Interval
	}
	if out.MaxFlapShift <= 0 {
		out.MaxFlapShift = DefaultMaxFlapShift
	}
	return out
}

// Validate rejects configurations the state machine cannot run.
func (c Config) Validate() error {
	if c.Interval < 0 || c.Jitter < 0 || c.DetectMult < 0 || c.UpHold < 0 || c.MaxFlapShift < 0 {
		return fmt.Errorf("liveness: negative config field: %+v", c)
	}
	return nil
}

// Verdict is one local up/down decision about the peer behind an endpoint.
type Verdict struct {
	At   des.Time
	Node topology.NodeID
	Port topology.PortID
	// Up is false for a peer-down verdict, true for a re-admission.
	Up bool
	// FalsePositive marks a down verdict against a link that was actually
	// alive (congestion starved the hellos).  Classified against ground
	// truth the protocol itself cannot see; used for statistics only.
	FalsePositive bool
}

// Stats aggregates detector activity.  All fields are counters, so Stats is
// comparable and mergeable by addition.
type Stats struct {
	HellosSeen int64 // hello flits consumed
	Misses     int64 // hello deadlines expired
	PeerDowns  int64 // down verdicts issued
	PeerUps    int64 // re-admissions issued
	// FalsePositives counts down verdicts against links that were actually
	// alive — the congestion-confusion failure mode of in-band detection.
	FalsePositives int64
	// Flaps counts down verdicts against endpoints that had already been
	// re-admitted at least once (each one doubles that endpoint's next
	// hold-down, up to MaxFlapShift).
	Flaps int64
	// FlapsSuppressed counts re-admission candidacies that collapsed before
	// the hold-down matured — the flaps the damping absorbed.
	FlapsSuppressed int64
}

// endpoint is the per-directional-link receiver state machine.
type endpoint struct {
	ep Endpoint
	// missGap is the longest silence a healthy link may show: interval +
	// jitter + propagation delay.
	missGap des.Time

	up     bool
	lastRx des.Time
	// nextMiss is the next hello deadline while up.
	nextMiss des.Time
	misses   int
	// cand marks a down endpoint whose hellos have reappeared; candReady is
	// when the candidacy matures into an up verdict.
	cand      bool
	candStart des.Time
	candReady des.Time
	// flaps counts completed down->up->down cycles, driving the hold-down
	// backoff.  readmitted marks an endpoint that has come back at least
	// once, so its next down verdict counts as a flap.
	flaps      int
	readmitted bool
}

// Monitor runs the per-endpoint state machines.  It implements the fabric's
// HelloSink interface structurally (HelloSeen + HelloTick) without
// importing internal/network.
type Monitor struct {
	cfg Config
	eps []*endpoint
	idx map[Endpoint]int

	// OnVerdict receives every up/down decision, in deterministic endpoint
	// order within a tick.  It runs inside the simulation tick.
	OnVerdict func(Verdict)

	// alive reports ground-truth link liveness for false-positive
	// classification (nil disables classification).
	alive func(topology.NodeID, topology.PortID) bool
	rec   trace.Recorder
	stats Stats
}

// New builds a monitor over the given endpoints (construction order is the
// verdict-iteration order, so callers must pass a deterministic slice —
// network.Fabric.HelloEndpoints is).  alive supplies ground truth for
// false-positive accounting; rec receives hello-missed/peer-down/peer-up/
// flap-suppressed events when non-nil.
func New(cfg Config, eps []Endpoint, alive func(topology.NodeID, topology.PortID) bool, rec trace.Recorder) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	m := &Monitor{cfg: cfg, alive: alive, rec: rec, idx: make(map[Endpoint]int, len(eps))}
	for i, ep := range eps {
		gap := cfg.Interval + cfg.Jitter + ep.Delay
		m.eps = append(m.eps, &endpoint{
			ep:      ep,
			missGap: gap,
			up:      true,
			// Everything starts up with a full deadline: the first hello
			// must arrive within one miss gap of t=0.
			nextMiss: gap,
		})
		if _, dup := m.idx[ep]; dup {
			return nil, fmt.Errorf("liveness: duplicate endpoint %+v", ep)
		}
		m.idx[ep] = i
	}
	return m, nil
}

// Config returns the effective (defaulted) configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Stats returns a snapshot of detector activity.
func (m *Monitor) Stats() Stats { return m.stats }

// Up reports the monitor's current belief about the endpoint.
func (m *Monitor) Up(ep Endpoint) bool {
	i, ok := m.idx[ep]
	return ok && m.eps[i].up
}

// HelloSeen consumes one hello arrival at (node, port).  Called by the
// fabric from inside the tick; unknown endpoints are ignored (a hello can
// race a topology change).
func (m *Monitor) HelloSeen(node topology.NodeID, port topology.PortID, delay des.Time, now des.Time) {
	i, ok := m.idx[Endpoint{Node: node, Port: port, Delay: delay}]
	if !ok {
		return
	}
	e := m.eps[i]
	m.stats.HellosSeen++
	e.lastRx = now
	if e.up {
		e.misses = 0
		e.nextMiss = now + e.missGap
		return
	}
	if !e.cand {
		// Hellos are back: open a re-admission candidacy that matures after
		// the flap-damped hold-down.
		e.cand = true
		e.candStart = now
		e.candReady = now + m.holdDown(e)
	}
}

// holdDown returns the endpoint's current re-admission hold-down.
func (m *Monitor) holdDown(e *endpoint) des.Time {
	shift := e.flaps
	if shift > m.cfg.MaxFlapShift {
		shift = m.cfg.MaxFlapShift
	}
	return m.cfg.UpHold << uint(shift)
}

// HelloTick advances every endpoint's deadline clock.  Called by the fabric
// once per byte-time while the hello protocol runs; endpoints are visited
// in construction order so the verdict stream is deterministic.
func (m *Monitor) HelloTick(now des.Time) {
	for _, e := range m.eps {
		switch {
		case e.up:
			if now < e.nextMiss {
				continue
			}
			e.misses++
			m.stats.Misses++
			if m.rec != nil {
				m.rec.Record(trace.Event{At: now, Kind: trace.EvHelloMissed,
					Node: e.ep.Node, Port: int(e.ep.Port), Arg: int64(e.misses)})
			}
			if e.misses < m.cfg.DetectMult {
				// Subsequent misses accrue one interval apart.
				e.nextMiss = now + m.cfg.Interval
				continue
			}
			m.declareDown(e, now)
		case e.cand:
			if now-e.lastRx > e.missGap {
				// Hellos stopped again before the hold-down matured: the
				// candidacy collapses and the damping has absorbed a flap.
				e.cand = false
				m.stats.FlapsSuppressed++
				if m.rec != nil {
					m.rec.Record(trace.Event{At: now, Kind: trace.EvFlapSuppressed,
						Node: e.ep.Node, Port: int(e.ep.Port)})
				}
				continue
			}
			if now >= e.candReady {
				m.declareUp(e, now)
			}
		}
	}
}

func (m *Monitor) declareDown(e *endpoint, now des.Time) {
	e.up = false
	e.cand = false
	e.misses = 0
	m.stats.PeerDowns++
	if e.readmitted {
		e.flaps++
		m.stats.Flaps++
	}
	fp := m.alive != nil && m.alive(e.ep.Node, e.ep.Port)
	if fp {
		m.stats.FalsePositives++
	}
	if m.rec != nil {
		arg := int64(0)
		if fp {
			arg = 1
		}
		m.rec.Record(trace.Event{At: now, Kind: trace.EvPeerDown,
			Node: e.ep.Node, Port: int(e.ep.Port), Arg: arg})
	}
	if m.OnVerdict != nil {
		m.OnVerdict(Verdict{At: now, Node: e.ep.Node, Port: e.ep.Port, FalsePositive: fp})
	}
}

func (m *Monitor) declareUp(e *endpoint, now des.Time) {
	e.up = true
	e.cand = false
	e.readmitted = true
	e.misses = 0
	e.nextMiss = now + e.missGap
	m.stats.PeerUps++
	if m.rec != nil {
		m.rec.Record(trace.Event{At: now, Kind: trace.EvPeerUp,
			Node: e.ep.Node, Port: int(e.ep.Port), Arg: int64(now - e.candStart)})
	}
	if m.OnVerdict != nil {
		m.OnVerdict(Verdict{At: now, Node: e.ep.Node, Port: e.ep.Port, Up: true})
	}
}

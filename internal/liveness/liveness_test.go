package liveness

import (
	"testing"

	"wormlan/internal/des"
	"wormlan/internal/topology"
)

// The tests use one endpoint with tight, round parameters: interval 100,
// jitter 10, detect-mult 3, hold-down 400, link delay 5.  The miss gap is
// therefore 115 and the detect time 335.

// drive advances the monitor tick by tick, delivering hellos at the given
// times.
func drive(m *Monitor, from, to des.Time, hellosAt map[des.Time]bool) {
	for now := from; now <= to; now++ {
		if hellosAt[now] {
			m.HelloSeen(1, 2, 5, now)
		}
		m.HelloTick(now)
	}
}

func TestDefaults(t *testing.T) {
	d := Config{}.WithDefaults()
	if d.Interval != DefaultInterval || d.DetectMult != DefaultDetectMult {
		t.Fatalf("unexpected defaults %+v", d)
	}
	if d.Jitter != DefaultInterval/8 {
		t.Fatalf("jitter default %d", d.Jitter)
	}
	if d.UpHold != 2*des.Time(DefaultDetectMult)*DefaultInterval {
		t.Fatalf("uphold default %d", d.UpHold)
	}
	if err := (Config{Interval: -1}).Validate(); err == nil {
		t.Fatal("negative interval not rejected")
	}
}

func TestDownAfterDetectMultMisses(t *testing.T) {
	var verdicts []Verdict
	cfg := Config{Interval: 100, Jitter: 10, DetectMult: 3, UpHold: 400, MaxFlapShift: 2}
	m, err := New(cfg, []Endpoint{{Node: 1, Port: 2, Delay: 5}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.OnVerdict = func(v Verdict) { verdicts = append(verdicts, v) }

	// Hellos at 50, 150, then silence.  Last rx 150: first miss at
	// 150+115=265, then 365, then 465 -> down at 465.
	drive(m, 1, 600, map[des.Time]bool{50: true, 150: true})
	if len(verdicts) != 1 {
		t.Fatalf("verdicts %+v", verdicts)
	}
	v := verdicts[0]
	if v.Up || v.Node != 1 || v.Port != 2 || v.At != 465 {
		t.Fatalf("down verdict %+v", v)
	}
	st := m.Stats()
	if st.PeerDowns != 1 || st.Misses != 3 || st.HellosSeen != 2 {
		t.Fatalf("stats %+v", st)
	}
	if m.Up(Endpoint{Node: 1, Port: 2, Delay: 5}) {
		t.Fatal("endpoint still believed up")
	}
	// No ground truth supplied: not classified as a false positive.
	if st.FalsePositives != 0 {
		t.Fatalf("unexpected false positives %+v", st)
	}
}

func TestHelloResetsMissCount(t *testing.T) {
	cfg := Config{Interval: 100, Jitter: 10, DetectMult: 3, UpHold: 400, MaxFlapShift: 2}
	m, err := New(cfg, []Endpoint{{Node: 1, Port: 2, Delay: 5}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	downs := 0
	m.OnVerdict = func(v Verdict) {
		if !v.Up {
			downs++
		}
	}
	// Two misses accrue after the hello at 50 (deadlines 165, 265), then a
	// hello at 300 resets the streak before the third.
	hellos := map[des.Time]bool{50: true, 300: true}
	// Keep feeding hellos every 100 from 400 on so no new streak starts.
	for ts := des.Time(400); ts <= 900; ts += 100 {
		hellos[ts] = true
	}
	drive(m, 1, 900, hellos)
	if downs != 0 {
		t.Fatalf("spurious down verdict after recovered miss streak")
	}
	if st := m.Stats(); st.Misses != 2 || st.PeerDowns != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReadmissionAfterHoldDown(t *testing.T) {
	cfg := Config{Interval: 100, Jitter: 10, DetectMult: 3, UpHold: 400, MaxFlapShift: 2}
	m, err := New(cfg, []Endpoint{{Node: 1, Port: 2, Delay: 5}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []Verdict
	m.OnVerdict = func(v Verdict) { verdicts = append(verdicts, v) }

	// Silence from t=0: misses at 115, 215, 315 -> down at 315.  Hellos
	// resume at 400 and keep coming every 100: candidacy opens at 400,
	// matures at 400+400=800.
	hellos := map[des.Time]bool{}
	for ts := des.Time(400); ts <= 1200; ts += 100 {
		hellos[ts] = true
	}
	drive(m, 1, 1200, hellos)
	if len(verdicts) != 2 {
		t.Fatalf("verdicts %+v", verdicts)
	}
	if verdicts[0].Up || verdicts[0].At != 315 {
		t.Fatalf("down verdict %+v", verdicts[0])
	}
	up := verdicts[1]
	if !up.Up || up.At != 800 {
		t.Fatalf("up verdict %+v", up)
	}
	if st := m.Stats(); st.PeerUps != 1 || st.Flaps != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFlapDampingSuppressionAndBackoff(t *testing.T) {
	cfg := Config{Interval: 100, Jitter: 10, DetectMult: 3, UpHold: 400, MaxFlapShift: 2}
	m, err := New(cfg, []Endpoint{{Node: 1, Port: 2, Delay: 5}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []Verdict
	m.OnVerdict = func(v Verdict) { verdicts = append(verdicts, v) }

	hellos := map[des.Time]bool{}
	// Down at 315 (silence from t=0).  A lone hello at 400 opens a
	// candidacy that must collapse (next silence gap > 115) without an up
	// verdict — the damping absorbs the blip.
	hellos[400] = true
	// Steady hellos from 700 re-open candidacy at 700, maturing at 1100.
	for ts := des.Time(700); ts <= 1400; ts += 100 {
		hellos[ts] = true
	}
	// Silence after 1400: misses at 1515, 1615, 1715 -> second down.  The
	// endpoint has been re-admitted once, so this down counts as a flap and
	// doubles the next hold-down: hellos from 1800 mature at 1800+800=2600.
	for ts := des.Time(1800); ts <= 2700; ts += 100 {
		hellos[ts] = true
	}
	drive(m, 1, 2700, hellos)

	st := m.Stats()
	if st.FlapsSuppressed != 1 {
		t.Fatalf("expected one suppressed flap: %+v", st)
	}
	if st.PeerDowns != 2 || st.PeerUps != 2 || st.Flaps != 1 {
		t.Fatalf("stats %+v", st)
	}
	want := []struct {
		at des.Time
		up bool
	}{{315, false}, {1100, true}, {1715, false}, {2600, true}}
	if len(verdicts) != len(want) {
		t.Fatalf("verdicts %+v", verdicts)
	}
	for i, w := range want {
		if verdicts[i].At != w.at || verdicts[i].Up != w.up {
			t.Fatalf("verdict %d = %+v, want %+v", i, verdicts[i], w)
		}
	}
}

func TestFalsePositiveClassification(t *testing.T) {
	// Ground truth says the link is alive, so the down verdict is a false
	// positive.
	cfg := Config{Interval: 100, Jitter: 10, DetectMult: 3, UpHold: 400, MaxFlapShift: 2}
	m, err := New(cfg, []Endpoint{{Node: 1, Port: 2, Delay: 5}},
		func(topology.NodeID, topology.PortID) bool { return true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []Verdict
	m.OnVerdict = func(v Verdict) { verdicts = append(verdicts, v) }
	drive(m, 1, 600, nil)
	if len(verdicts) != 1 || !verdicts[0].FalsePositive {
		t.Fatalf("verdicts %+v", verdicts)
	}
	if st := m.Stats(); st.FalsePositives != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDuplicateEndpointRejected(t *testing.T) {
	ep := Endpoint{Node: 1, Port: 2, Delay: 5}
	if _, err := New(Config{}, []Endpoint{ep, ep}, nil, nil); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
}

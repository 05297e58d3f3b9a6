package main

// The untraced pass: closed loop, one generator goroutine running points
// back to back through sweep.Run (Workers: 1) -> sim.Run.  Everything the
// end-to-end metrics report is measured here, with tracing off.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"wormlan/internal/adapter"
	"wormlan/internal/fault"
	"wormlan/internal/network"
	"wormlan/internal/sim"
	"wormlan/internal/sweep"
)

// fingerprint is the integer-only identity of one simulated point: every
// counter the run produced and no float, so it is portable across FMA and
// non-FMA targets.  Two runs of one point must agree on all of it.
type fingerprint struct {
	Fabric  network.Counters
	Adapter adapter.Stats
	Fault   fault.Counters

	MCDeliveries, UniDeliveries int64
	GeneratedWorms, GeneratedMC int64

	EventsDispatched int64
	MaxQueueDepth    int
	EndTime          int64
	HeldChannels     int
	Stalled, Drained bool
}

func fingerprintOf(r *sim.Results) fingerprint {
	return fingerprint{
		Fabric: r.Fabric, Adapter: r.Adapter, Fault: r.Fault,
		MCDeliveries: r.MCDeliveries, UniDeliveries: r.UniDeliveries,
		GeneratedWorms: r.GeneratedWorms, GeneratedMC: r.GeneratedMC,
		EventsDispatched: r.EventsDispatched, MaxQueueDepth: r.MaxQueueDepth,
		EndTime: r.EndTime, HeldChannels: r.HeldChannels,
		Stalled: r.Stalled, Drained: r.Drained,
	}
}

// hash is the form golden.json stores.
func (f fingerprint) hash() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", f)))
	return hex.EncodeToString(sum[:8])
}

// invariantFailure is the checker behind ops_failed: a point fails when it
// stalls or, having drained, lost a worm or left a channel bound.  It
// returns "" for a healthy point.
func (f fingerprint) invariantFailure() string {
	switch {
	case f.Stalled:
		return "stalled: worms frozen in the fabric"
	case f.Drained && f.Fabric.Injected != f.Fabric.Delivered+f.Fabric.WormsDropped:
		return fmt.Sprintf("conservation: injected %d != delivered %d + dropped %d",
			f.Fabric.Injected, f.Fabric.Delivered, f.Fabric.WormsDropped)
	case f.Drained && f.HeldChannels != 0:
		return fmt.Sprintf("%d channels still held after drain", f.HeldChannels)
	}
	return ""
}

// pointID is the sweep identity of one point; Lap and Copy keep the repeats
// of one cell on distinct derived seeds.
type pointID struct {
	Cell cell `json:"cell"`
	Lap  int  `json:"lap"`
	Copy int  `json:"copy"`
}

func (p pointID) key(workload string) string {
	return fmt.Sprintf("%s/%s/lap%d/%d", workload, p.Cell.name(), p.Lap, p.Copy)
}

func gridName(workload string) string { return "wormbench/" + workload }

// pointOut is what one point hands back through sweep.Run.
type pointOut struct {
	FP         fingerprint
	WallNs     int64
	UniLatency float64 // mean unicast latency, byte-times; 0 when nothing was delivered
	Throughput float64
	Failure    string // sim.Run error or invariant violation; "" when healthy
}

func runPoint(c cell, seed uint64, lap int) pointOut {
	start := time.Now()
	cfg, err := c.config(seed, lap)
	if err != nil {
		return pointOut{Failure: err.Error()}
	}
	r, err := sim.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		return pointOut{WallNs: int64(wall), Failure: err.Error()}
	}
	out := pointOut{FP: fingerprintOf(r), WallNs: int64(wall), Throughput: r.ThroughputPerHost}
	if r.UniLatency.N() > 0 {
		out.UniLatency = r.UniLatency.Mean()
	}
	out.Failure = out.FP.invariantFailure()
	return out
}

// lapPoints lists one lap's points in execution order.
func lapPoints(w workload, lap int) []pointID {
	var ps []pointID
	for _, c := range w.Cells {
		for k := 0; k < c.copies(); k++ {
			ps = append(ps, pointID{Cell: c, Lap: lap, Copy: k})
		}
	}
	return ps
}

// lapResult is one sweep.Run over a lap's points.
type lapResult struct {
	IDs    []pointID
	Points []pointOut
	WallS  float64
	RT     runtimeDelta // process counters over the lap: CPU, allocation, GC
}

func (l lapResult) flitHops() int64 {
	var n int64
	for _, p := range l.Points {
		n += p.FP.Fabric.FlitsCarried
	}
	return n
}

func (l lapResult) pointWallS() float64 {
	var ns int64
	for _, p := range l.Points {
		ns += p.WallNs
	}
	return float64(ns) / 1e9
}

// runLap runs one lap untraced.  A failing point is recorded, not returned
// as an error, so the rest of the lap still runs and is counted.
func runLap(w workload, seed uint64, lap int) (lapResult, error) {
	ids := lapPoints(w, lap)
	g := sweep.Grid[pointOut]{Name: gridName(w.Name), BaseSeed: seed}
	for _, id := range ids {
		c := id.Cell
		g.Add(id, func(_ context.Context, pseed uint64) (pointOut, error) {
			return runPoint(c, pseed, lap), nil
		})
	}
	before := readRuntime()
	start := time.Now()
	out, err := sweep.Run(context.Background(), &sweep.Engine{Workers: 1}, g)
	wall := time.Since(start)
	d := readRuntime().since(before)
	if err != nil {
		return lapResult{}, err
	}
	return lapResult{IDs: ids, Points: out, WallS: wall.Seconds(), RT: d}, nil
}

// runtimeSample reads the process-wide counters the runtime.* metrics and
// cpu_s/alloc_mb are deltas of.
type runtimeSample struct {
	cpuS, gcCPUS   float64
	totalAlloc     uint64
	mallocs        uint64
	gcCycles       uint32
	gcPauseTotalNs uint64
}

type runtimeDelta struct {
	CPUS, GCCPUS, AllocMB, GCPauseMs float64
	Mallocs, GCCycles                int64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	s := runtimeSample{cpuS: processCPU(), totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs,
		gcCycles: ms.NumGC, gcPauseTotalNs: ms.PauseTotalNs}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPUS = gc[0].Value.Float64()
	}
	return s
}

func (s runtimeSample) since(b runtimeSample) runtimeDelta {
	return runtimeDelta{
		CPUS: s.cpuS - b.cpuS, GCCPUS: s.gcCPUS - b.gcCPUS,
		AllocMB:   float64(s.totalAlloc-b.totalAlloc) / 1e6,
		GCPauseMs: float64(s.gcPauseTotalNs-b.gcPauseTotalNs) / 1e6,
		Mallocs:   int64(s.mallocs - b.mallocs), GCCycles: int64(s.gcCycles - b.gcCycles),
	}
}

// processCPU is user+system CPU seconds of the whole process, so work
// moved to GC or any other thread still shows.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// untraced is the untraced pass of one workload.
type untraced struct {
	Laps    []lapResult
	SetupS  float64 // sum over one lap's points of their set-up class median
	Failed  []string
	Drift   []string // points whose fingerprint differs from golden.json
	Checked int      // points that had a golden fingerprint
}

func (u untraced) attempted() int {
	n := 0
	for _, l := range u.Laps {
		n += len(l.Points)
	}
	return n
}

// runUntraced runs laps until the table's lap count (seconds == 0) or the
// time budget is spent.  A timed run always finishes lap 0, and starts a
// further lap only if the median lap so far would end inside the budget.
func runUntraced(w workload, seed uint64, seconds float64, gold map[string]string) (untraced, error) {
	var u untraced
	start := time.Now()
	for lap := 0; ; lap++ {
		if seconds <= 0 && lap >= w.Laps {
			break
		}
		if seconds > 0 && lap > 0 {
			walls := make([]float64, len(u.Laps))
			for i, l := range u.Laps {
				walls[i] = l.WallS
			}
			if time.Since(start).Seconds()+median(walls) > seconds {
				break
			}
		}
		l, err := runLap(w, seed, lap)
		if err != nil {
			return u, err
		}
		u.Laps = append(u.Laps, l)
		for i, p := range l.Points {
			key := l.IDs[i].key(w.Name)
			if p.Failure != "" {
				u.Failed = append(u.Failed, key+": "+p.Failure)
				continue
			}
			if want, ok := gold[key]; ok {
				u.Checked++
				if got := p.FP.hash(); got != want {
					u.Drift = append(u.Drift, fmt.Sprintf("%s: golden %s, got %s", key, want, got))
				}
			}
		}
	}
	return u, nil
}

// setupProbeReps is how many zero-window runs one set-up class gets; the
// class's cost is their median.
const setupProbeReps = 20

// probeSetup measures setup_s: for every point of one lap, the median wall
// of everything the point does except simulate — build its config and
// topology, then sim.Run with Warmup 0, Measure 1, Drain 1.  Points whose
// cells differ only in load or windows share one set-up class and one
// probe, which is what keeps 960-point tables affordable.
func probeSetup(w workload, seed uint64) (float64, error) {
	class := map[cell]float64{}
	total := 0.0
	for _, c := range w.Cells {
		key := c
		key.Load, key.MCProb, key.Copies = 0, 0, 0
		key.Warmup, key.Measure, key.Drain = 0, 0, 0
		med, ok := class[key]
		if !ok {
			probe := c
			probe.Warmup, probe.Measure, probe.Drain = 0, 1, 1
			walls := make([]float64, setupProbeReps)
			for i := range walls {
				out := runPoint(probe, seed+uint64(i), 0)
				if out.Failure != "" {
					return 0, fmt.Errorf("set-up probe %s: %s", c.name(), out.Failure)
				}
				walls[i] = float64(out.WallNs) / 1e9
			}
			med = median(walls)
			class[key] = med
		}
		total += med * float64(c.copies())
	}
	return total, nil
}

// endToEnd computes the nine end-to-end metrics.  Host-time metrics are
// per-lap medians, so a run of any length reports comparable numbers.  The
// simulated statistics pool every point run, so they depend on the seed and
// the lap count alone.  Latency is the mean unicast latency of the faster
// half of the points: cells at or near saturation have latencies that swing
// severalfold from seed to seed, and multicast latency follows the seed's
// random group placement, so any mean over all deliveries reports little
// but those two.
func (u untraced) endToEnd() map[string]float64 {
	var walls, cpus, allocs, rates, pointMs, lats, thpt []float64
	for _, l := range u.Laps {
		walls = append(walls, l.WallS)
		cpus = append(cpus, l.RT.CPUS)
		allocs = append(allocs, l.RT.AllocMB)
		rates = append(rates, float64(l.flitHops())/l.WallS)
		for _, p := range l.Points {
			pointMs = append(pointMs, float64(p.WallNs)/1e6)
			if p.UniLatency > 0 {
				lats = append(lats, p.UniLatency)
			}
			thpt = append(thpt, p.Throughput)
		}
	}
	return map[string]float64{
		"wall_s":                  median(walls),
		"cpu_s":                   median(cpus),
		"flit_hops_per_s":         median(rates),
		"setup_s":                 u.SetupS,
		"alloc_mb":                median(allocs),
		"point_ms_p50":            quantile(pointMs, 0.50),
		"point_ms_p90":            quantile(pointMs, 0.90),
		"sim_latency_bt":          lowerHalfMean(lats),
		"sim_throughput_per_host": mean(thpt),
	}
}

// lowerHalfMean is the mean of the smaller half of the values (the middle
// one included when the count is odd).
func lowerHalfMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[:(len(s)+1)/2])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

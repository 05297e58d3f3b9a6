package main

// The traced pass: lap 0 of a workload again, through the harness, and the
// per-layer metrics computed from its spans and counters.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"wormlan/internal/sweep"
)

// traced is the traced pass of one workload.
type traced struct {
	Totals   layerTotals
	WallS    float64
	Fidelity []string // points whose harness fingerprint differs from sim.Run's
}

// runTraced re-runs lap 0 through the harness under the same derived seeds
// the untraced pass used, and checks every point against it.
func runTraced(rec *recorder, w workload, seed uint64, lap0 lapResult) (traced, error) {
	t := traced{Totals: layerTotals{SpanNs: map[string]int64{}}}
	start := time.Now()
	for i, id := range lap0.IDs {
		key := id.key(w.Name)
		_, pseed, err := sweep.PointIdentity(gridName(w.Name), seed, id)
		if err != nil {
			return t, err
		}
		fp, err := tracedRun(rec, key, id.Cell, pseed, id.Lap, &t.Totals)
		if err != nil {
			return t, fmt.Errorf("traced %s: %w", key, err)
		}
		if want := lap0.Points[i].FP; fp != want {
			t.Fidelity = append(t.Fidelity, fmt.Sprintf("%s: sim.Run %s, harness %s", key, want.hash(), fp.hash()))
		}
	}
	t.WallS = time.Since(start).Seconds()
	return t, nil
}

// probes are the bare-layer measurements; they do not depend on the
// workload, so a run measures them once.
type probes struct {
	EventqNs, NullTickNs, BareFlitHopNs float64
}

func runProbes() (probes, error) {
	p := probes{EventqNs: probeEventq()}
	var err error
	if p.NullTickNs, err = probeNullTick(); err != nil {
		return p, err
	}
	p.BareFlitHopNs, err = probeBareFabric()
	return p, err
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer computes every per-layer metric of one workload.
func perLayer(u untraced, t traced, p probes) map[string]float64 {
	lt := t.Totals
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	lap0 := u.Laps[0]
	m := map[string]float64{
		"updown.table_alloc_mb": float64(lt.TableAllocBytes) / 1e6,
		"sim.collect_ms":        ms(lt.CollectNs),

		"des.run_ms":             ms(lt.RunNs),
		"des.events":             float64(lt.Events + lt.Remaps),
		"des.ticks":              float64(lt.KernelTicks),
		"des.event_ms":           ms(lt.EventNs),
		"des.event_ns_per_event": ratio(float64(lt.EventNs), float64(lt.Events)),
		"des.self_ms":            ms(lt.RunNs - lt.TickNs - lt.SkipNs - lt.EventNs - lt.RemapNs),
		"des.max_queue":          float64(lt.MaxQueue),

		"network.tick_ms":         ms(lt.TickNs),
		"network.ticks_run":       float64(lt.Ticks),
		"network.ns_per_tick":     ratio(float64(lt.TickNs), float64(lt.Ticks)),
		"network.flit_hops":       float64(lt.FlitHops),
		"network.ns_per_flit_hop": ratio(float64(lt.TickNs+lt.SkipNs), float64(lt.FlitHops)),
		"network.skip_ms":         ms(lt.SkipNs),
		"network.skip_runs":       float64(lt.SkipRuns),
		"network.skipped_ticks":   float64(lt.SkippedTicks),
		"network.skip_engagement": ratio(float64(lt.SkippedTicks), float64(lt.KernelTicks)),
		"network.worms_delivered": float64(lt.WormsDelivered),
		"network.worms_dropped":   float64(lt.WormsDropped),
		"network.hellos_deferred": float64(lt.HellosDeferred),

		"adapter.send_ms":             ms(lt.SendNs),
		"adapter.sends":               float64(lt.Sends),
		"adapter.nacks":               float64(lt.Adapter.Nacks),
		"adapter.retransmits":         float64(lt.Adapter.Retransmits),
		"adapter.timeout_retransmits": float64(lt.Adapter.TimeoutRetransmits),
		"adapter.giveups":             float64(lt.Adapter.GiveUps),
		"adapter.retransmit_frac": ratio(float64(lt.Adapter.Retransmits),
			float64(lt.Adapter.MulticastsSent+lt.Adapter.UnicastsSent)),
		"traffic.worms_generated": float64(lt.WormsGenerated),

		"fault.remaps":             float64(lt.Remaps),
		"fault.remap_ms":           ms(lt.RemapNs),
		"fault.remap_ms_per_remap": ratio(ms(lt.RemapNs), float64(lt.Remaps)),
		"liveness.verdicts_down":   float64(lt.VerdictsDown),
		"liveness.false_positives": float64(lt.FalsePositives),

		"sweep.overhead_frac":     ratio(lap0.WallS-lap0.pointWallS(), lap0.WallS),
		"runtime.mallocs":         float64(lap0.RT.Mallocs),
		"runtime.allocs_per_worm": ratio(float64(lt.RunMallocs), float64(lt.WormsGenerated)),
		"runtime.gc_cycles":       float64(lap0.RT.GCCycles),
		"runtime.gc_pause_ms":     lap0.RT.GCPauseMs,
		"runtime.gc_cpu_frac":     ratio(lap0.RT.GCCPUS, lap0.RT.CPUS),
		"runtime.peak_rss_mb":     peakRSSMB(),
		"trace.overhead_frac":     ratio(t.WallS-lap0.WallS, lap0.WallS),
		"trace.fidelity_failures": float64(len(t.Fidelity)),

		"eventq.schedule_pop_ns":       p.EventqNs,
		"des.null_tick_ns":             p.NullTickNs,
		"network.bare_ns_per_flit_hop": p.BareFlitHopNs,
	}
	for _, name := range []string{"topology.build", "updown.new", "updown.table", "vcroute.build",
		"vcroute.validate", "network.new", "network.adaptive_table", "multicast.groups",
		"adapter.new_system", "fault.new_injector", "traffic.new", "sim.setup_self"} {
		m[name+"_ms"] = ms(lt.SpanNs[name])
	}
	return m
}

// writeSpans dumps the recorded spans as one JSON array.
func writeSpans(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(rec.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

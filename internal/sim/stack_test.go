package sim

// Tests for the exported stages: Run must be nothing but their composition,
// and a harness that calls them one by one (faulttest's bench, core's
// ablations, the examples) must get the same stack Run gets.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wormlan/internal/fault"
	"wormlan/internal/topology"
	"wormlan/internal/updown"
	"wormlan/internal/vcroute"
)

// TestStagesByHandEqualRun: Build → Wire → K.Run → Collect on a fault-plan
// configuration reproduces Run's Results exactly (minus the Config echo,
// which carries pointers).
func TestStagesByHandEqualRun(t *testing.T) {
	mk := func() Config {
		cfg := smallConfig(TreeSF, 0.06)
		cfg.FaultPlan = fault.RandomPlan(cfg.Graph, fault.Options{
			Seed: 3, LinkDowns: 1, SwitchDowns: 1, Window: 60_000,
		})
		return cfg
	}
	want, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(mk())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Wire(); err != nil {
		t.Fatal(err)
	}
	if err := st.K.Run(st.windowEnd + st.cfg.Drain); err != nil {
		t.Fatal(err)
	}
	got := st.Collect()
	if want.Fault.Remaps == 0 {
		t.Fatalf("plan drove no remap: %+v", want.Fault)
	}
	got.Config, want.Config = Config{}, Config{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hand-driven stages diverged from Run:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestRerouteKeepsRoutingCurrent: after a LinkDown remap the stack's UD and
// Table are the rebuilt ones — what RoutesErr and the chaos tests read
// through faulttest.Bench.
func TestRerouteKeepsRoutingCurrent(t *testing.T) {
	for _, route := range []string{"updown", "adaptive"} {
		t.Run(route, func(t *testing.T) {
			g, geo := topology.TorusWithGeom(4, 4, 1, 1)
			st, err := Build(Config{Graph: g, Route: route, Scheme: HamiltonianSF, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Attach(); err != nil {
				t.Fatal(err)
			}
			plan := (&fault.Plan{}).LinkDown(1_000, geo.Sw[1][1], geo.XPlus[1][1])
			if err := st.Faults(plan, fault.InjectorConfig{}); err != nil {
				t.Fatal(err)
			}
			ud0, tbl0 := st.UD, st.Table
			if err := st.K.Run(0); err != nil {
				t.Fatal(err)
			}
			if n := st.Inj.Counters().Remaps; n != 1 {
				t.Fatalf("remaps = %d, want 1", n)
			}
			if st.UD == ud0 || st.Table == tbl0 {
				t.Fatal("remap left the build's routing in the stack")
			}
			if f := st.UD.Failures(); f == nil || len(f.Links) == 0 {
				t.Fatalf("current labelling records no failed link: %+v", f)
			}
			sch, err := vcroute.Lookup(route)
			if err != nil {
				t.Fatal(err)
			}
			if err := vcroute.ValidateTable(g, st.Table, sch.VCEncoded, false); err != nil {
				t.Fatalf("rebuilt table invalid over the survivors: %v", err)
			}
		})
	}
}

// TestRemapStrandsCutOffSwitch: cutting every cable of one non-root torus
// switch leaves it alive but unreachable.  The fabric's true failure set
// does not list it; the relabelling must, because the vcmin rebuild reads
// its surviving fabric from UD.Failures() and would otherwise route into it.
func TestRemapStrandsCutOffSwitch(t *testing.T) {
	g, geo := topology.TorusWithGeom(4, 4, 1, 1)
	st, err := Build(Config{Graph: g, TorusGeom: geo, Route: "vcmin", Scheme: HamiltonianSF, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Attach(); err != nil {
		t.Fatal(err)
	}
	k := geo.Sw[1][1]
	plan := &fault.Plan{}
	for pi, p := range g.Node(k).Ports {
		if p.Wired() && g.Node(p.Peer).Kind == topology.Switch {
			plan.LinkDown(1_000, k, topology.PortID(pi))
		}
	}
	if err := st.Faults(plan, fault.InjectorConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := st.K.Run(0); err != nil {
		t.Fatal(err)
	}
	if n := st.Inj.Counters().Remaps; n != 1 {
		t.Fatalf("remaps = %d, want 1", n)
	}
	if st.Fabric.Failures().SwitchDead(k) {
		t.Fatalf("switch %d crashed in the fabric; the plan only cut its cables", k)
	}
	if !st.UD.Failures().SwitchDead(k) {
		t.Fatalf("stranded switch %d missing from the installed labelling's failure set", k)
	}
	for _, h := range geo.Hosts[1][1] {
		for _, o := range g.Hosts() {
			if o != h && (st.Table.HasRoute(o, h) || st.Table.HasRoute(h, o)) {
				t.Fatalf("table routes between %d and stranded host %d", o, h)
			}
		}
	}
}

// TestBuildNeedsNoWindow: a harness that drives its own traffic can Build
// (and Attach) without a measurement window; Wire, which starts the
// windowed generator, and therefore Run, still refuse.
func TestBuildNeedsNoWindow(t *testing.T) {
	cfg := smallConfig(TreeSF, 0.05)
	cfg.Warmup, cfg.Measure = 0, 0
	st, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build with a zero window: %v", err)
	}
	const want = "sim: zero measure window"
	if err := st.Wire(); err == nil || err.Error() != want {
		t.Fatalf("Wire = %v, want %q", err, want)
	}
	if _, err := Run(cfg); err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %q", err, want)
	}
}

// TestSwitchLevelTableIsTreeOnly: a switch-level run's one table is
// Stack.Table, and it is scheme A's: every route a legal up*/down* walk on
// spanning-tree links only, and the table proves deadlock-free.
func TestSwitchLevelTableIsTreeOnly(t *testing.T) {
	torus, err := topology.Named("torus8x8", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *topology.Graph
	}{
		{"torus8x8", torus.Graph},
		{"fattree-crosslinks", topology.FatTreeish(4, 2, true)},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, err := Build(Config{Graph: c.g, Scheme: SwitchFabric, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			offTree := func(h updown.Hop) error {
				if !st.UD.InTree(h.Switch, h.Port) {
					return fmt.Errorf("hop %d leaves the tree at port %d of switch %d", h.Index, h.Port, h.Switch)
				}
				return nil
			}
			for _, src := range st.Table.Hosts {
				for _, dst := range st.Table.Hosts {
					if src == dst {
						continue
					}
					rt := st.Table.Lookup(src, dst)
					if err := st.UD.VerifyRoute(rt); err != nil {
						t.Fatalf("%d->%d: %v", src, dst, err)
					}
					if err := rt.Walk(c.g, nil, offTree); err != nil {
						t.Fatalf("%d->%d: %v", src, dst, err)
					}
				}
			}
			if err := st.Table.Prove(c.g, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFaultsRejectedOnSwitchLevelStack: a switch-level stack has no adapter
// system to reroute, so Faults returns Build's FaultPlan + SwitchLevel error
// instead of dereferencing a nil Sys at the first remap.
func TestFaultsRejectedOnSwitchLevelStack(t *testing.T) {
	st, err := Build(smallConfig(SwitchFabric, 0.06))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Attach(); err != nil {
		t.Fatal(err)
	}
	plan := (&fault.Plan{}).LinkDown(1_000, st.cfg.Graph.Switches()[0], 0)
	err = st.Faults(plan, fault.InjectorConfig{})
	if err == nil || !strings.Contains(err.Error(), "switch-level") {
		t.Fatalf("Faults on a switch-level stack = %v, want the switch-level error", err)
	}
	cfg := smallConfig(SwitchFabric, 0.06)
	cfg.FaultPlan = plan
	if _, berr := Build(cfg); berr == nil || berr.Error() != err.Error() {
		t.Fatalf("Build = %v, Faults = %v: want the same error", berr, err)
	}
}

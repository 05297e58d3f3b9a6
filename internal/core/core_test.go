package core

import (
	"context"
	"os"
	"strings"
	"testing"

	"wormlan/internal/sweep"
)

// runSeq runs a grid on one worker.
func runSeq[R any](t *testing.T, g sweep.Grid[R]) []R {
	t.Helper()
	rows, err := sweep.Run(context.Background(), &sweep.Engine{Workers: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestFig10QuickShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestFig10ParallelEquivalence exercises the grid")
	}
	rows := runSeq(t, Fig10Grid(Quick, 1, 0))
	if len(rows) != len(Fig10Schemes)*len(Fig10Loads(Quick)) {
		t.Fatalf("rows %d", len(rows))
	}
	byScheme := map[string][]Fig10Row{}
	for _, r := range rows {
		if r.Samples == 0 {
			t.Fatalf("no samples at %+v", r)
		}
		byScheme[r.Scheme] = append(byScheme[r.Scheme], r)
	}
	// Shape criteria from the paper: every curve rises with load, and the
	// cut-through circuit is the cheapest at the lightest load.
	for name, rs := range byScheme {
		if rs[len(rs)-1].MCLatency <= rs[0].MCLatency {
			t.Errorf("%s latency did not rise with load: %v -> %v",
				name, rs[0].MCLatency, rs[len(rs)-1].MCLatency)
		}
	}
	ct := byScheme["hamiltonian-cut-thru"][0].MCLatency
	sf := byScheme["hamiltonian"][0].MCLatency
	tree := byScheme["tree-flood"][0].MCLatency
	if ct >= sf || ct >= tree {
		t.Errorf("cut-through not cheapest at light load: ct=%v sf=%v tree=%v", ct, sf, tree)
	}
	var sb strings.Builder
	PrintFig10(&sb, rows)
	if !strings.Contains(sb.String(), "Figure 10") {
		t.Fatal("print output")
	}
}

func TestFig11QuickShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the full shufflenet grid is minutes under -race")
	}
	rows := runSeq(t, Fig11Grid(Quick, 2))
	// Tree delay below the Hamiltonian's at matching (prop, load) cells.
	type key struct {
		prop, load float64
	}
	tree := map[key]float64{}
	hc := map[key]float64{}
	for _, r := range rows {
		k := key{r.Prop, r.Load}
		if r.Scheme == "tree-flood" {
			tree[k] = r.MCLat
		} else {
			hc[k] = r.MCLat
		}
	}
	better := 0
	for k, tv := range tree {
		if hv, ok := hc[k]; ok && tv < hv {
			better++
		}
	}
	if better < len(tree)*2/3 {
		t.Errorf("tree beat hamiltonian in only %d of %d cells", better, len(tree))
	}
	var sb strings.Builder
	PrintFig11(&sb, rows)
	if !strings.Contains(sb.String(), "shufflenet") {
		t.Fatal("print output")
	}
}

func TestFig12And13Quick(t *testing.T) {
	single, all := Fig12And13(Quick)
	if len(single) != len(Fig12Sizes(Quick)) || len(all) != len(single) {
		t.Fatalf("points %d/%d", len(single), len(all))
	}
	for _, p := range single {
		if p.LossRate != 0 {
			t.Errorf("single-sender loss at %d B: %v", p.PacketSize, p.LossRate)
		}
	}
	if single[len(single)-1].ThroughputMbps <= single[0].ThroughputMbps {
		t.Error("single-sender throughput did not rise with size")
	}
	lossSeen := false
	for _, p := range all {
		if p.LossRate > 0 {
			lossSeen = true
		}
	}
	if !lossSeen {
		t.Error("all-send produced no loss anywhere")
	}
	var sb strings.Builder
	PrintFig12And13(&sb, single, all)
	if !strings.Contains(sb.String(), "Figure 12") {
		t.Fatal("print output")
	}
}

// TestFig12And13Golden pins the full-scale figure to the tracked results
// file: the model is deterministic, so the comparison is byte for byte.
func TestFig12And13Golden(t *testing.T) {
	want, err := os.ReadFile("../../results_fig12_13.txt")
	if err != nil {
		t.Fatal(err)
	}
	single, all := Fig12And13(Full)
	var sb strings.Builder
	PrintFig12And13(&sb, single, all)
	if sb.String() != string(want) {
		t.Errorf("results_fig12_13.txt is stale (regenerate with `mcbench -fig 12 -scale full`):\ngot:\n%swant:\n%s", sb.String(), want)
	}
}

func TestAblationBufferClasses(t *testing.T) {
	r := runSeq(t, BufferClassesGrid(3))
	if len(r) != 2 {
		t.Fatalf("rows %d", len(r))
	}
	if r[0].SingleClass || !r[1].SingleClass {
		t.Fatal("row order")
	}
	if r[0].GiveUps != 0 {
		t.Errorf("two-class gave up %d times", r[0].GiveUps)
	}
	if r[1].GiveUps == 0 {
		t.Error("single-class did not livelock")
	}
	if r[0].Delivered <= r[1].Delivered {
		t.Errorf("two-class delivered %d <= single-class %d", r[0].Delivered, r[1].Delivered)
	}
	var sb strings.Builder
	PrintBufferClasses(&sb, r)
	if !strings.Contains(sb.String(), "single-class") {
		t.Fatal("print output")
	}
}

func TestAblationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: ordering ablation is a long paired run")
	}
	r := runSeq(t, OrderingGrid(4))
	if len(r) != 2 {
		t.Fatalf("rows %d", len(r))
	}
	if r[1].MCLatency <= r[0].MCLatency {
		t.Errorf("total ordering came for free: unordered=%v ordered=%v",
			r[0].MCLatency, r[1].MCLatency)
	}
	var sb strings.Builder
	PrintOrdering(&sb, r)
	if !strings.Contains(sb.String(), "ordered") {
		t.Fatal("print output")
	}
}

func TestAblationTreeConstruction(t *testing.T) {
	r, err := AblationTreeConstruction(5)
	if err != nil {
		t.Fatal(err)
	}
	if r[1].WireHops >= r[0].WireHops {
		t.Errorf("greedy tree (%d hops) not cheaper than heap tree (%d hops)",
			r[1].WireHops, r[0].WireHops)
	}
	var sb strings.Builder
	PrintTreeConstruction(&sb, r)
	if !strings.Contains(sb.String(), "greedy") {
		t.Fatal("print output")
	}
}

func TestAblationFabricVsAdapter(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: three full simulation runs")
	}
	r := runSeq(t, FabricVsAdapterGrid(6))
	if len(r) != 3 {
		t.Fatalf("rows %d", len(r))
	}
	if r[0].Scheme != "switch-fabric" {
		t.Fatal("row order")
	}
	// The paper: "switch fabric based solutions provide the lowest
	// latency" for multicast...
	if r[0].MCLatency >= r[1].MCLatency || r[0].MCLatency >= r[2].MCLatency {
		t.Errorf("fabric mc latency %.0f not lowest (tree %.0f, hc %.0f)",
			r[0].MCLatency, r[1].MCLatency, r[2].MCLatency)
	}
	// ...at the cost of unicast performance under tree-restricted routing.
	if r[0].UniLat <= r[1].UniLat {
		t.Errorf("tree-restricted unicast latency %.0f not above free routing %.0f",
			r[0].UniLat, r[1].UniLat)
	}
	var sb strings.Builder
	PrintFabricVsAdapter(&sb, r)
	if !strings.Contains(sb.String(), "switch-fabric") {
		t.Fatal("print output")
	}
}

func TestAblationRouting(t *testing.T) {
	r, err := AblationRouting()
	if err != nil {
		t.Fatal(err)
	}
	if r[1].MeanHops <= r[0].MeanHops {
		t.Errorf("tree-only routing (%v) not longer than up/down (%v)",
			r[1].MeanHops, r[0].MeanHops)
	}
	var sb strings.Builder
	PrintRouting(&sb, r)
	if !strings.Contains(sb.String(), "tree-only") {
		t.Fatal("print output")
	}
}

func TestBufferOccupancyStudy(t *testing.T) {
	rows := runSeq(t, BufferStudyGrid(7, []float64{0.01, 0.05}))
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Deliveries == 0 {
			t.Fatalf("no deliveries at load %v", r.Load)
		}
		if r.GiveUps != 0 {
			t.Fatalf("protocol gave up at load %v", r.Load)
		}
		if r.PeakClass1 == 0 {
			t.Fatalf("class-1 pool untouched at load %v", r.Load)
		}
	}
	// Contention grows with load: both peak occupancy and NACK rate.
	if rows[1].PeakClass1 < rows[0].PeakClass1 {
		t.Errorf("peak occupancy fell with load: %d -> %d",
			rows[0].PeakClass1, rows[1].PeakClass1)
	}
	var sb strings.Builder
	PrintBufferStudy(&sb, rows)
	if !strings.Contains(sb.String(), "nackRate") {
		t.Fatal("print output")
	}
}

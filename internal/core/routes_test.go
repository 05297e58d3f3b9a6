package core

import (
	"encoding/json"
	"testing"
)

// TestRoutesParallelEquivalence: the routing comparison grid is
// worker-count invariant, like every other figure grid.
func TestRoutesParallelEquivalence(t *testing.T) {
	g := RoutesGrid(Quick, 1996, RoutesVariants)
	if testing.Short() {
		// Point seeds depend only on point identity, never on position,
		// so a truncated grid exercises the same property at race-job
		// cost.  The slice spans two variants (updown and vcmin).
		g.Points = g.Points[:4]
	}
	assertWorkerInvariant(t, g)
}

// TestFigPointKeyStability: the routing knobs on figPoint are omitempty,
// so a pre-VC figure cell (fig10/fig11) serializes exactly as it did
// before the fields existed — its sweep point key and derived seed are
// unchanged, so no published figure row moves.
func TestFigPointKeyStability(t *testing.T) {
	p := figPoint{Scheme: "hamiltonian-sf", Load: 0.03, MulticastProb: 0.1,
		Warmup: 30_000, Measure: 120_000}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"scheme":"hamiltonian-sf","load":0.03,"mcProb":0.1,"warmup":30000,"measure":120000}`
	if string(b) != want {
		t.Fatalf("pre-VC figPoint encoding changed (point keys and seeds would rotate):\n got  %s\n want %s", b, want)
	}
}

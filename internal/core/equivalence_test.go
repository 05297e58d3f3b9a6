package core

// Determinism-equivalence tests: the figure grids must produce
// byte-identical rows no matter how many workers the sweep engine uses.
// Every point derives its seed from its identity (grid name, base seed,
// config) rather than from execution order, so workers=8 and workers=1
// must be indistinguishable in the output.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"wormlan/internal/sweep"
)

// assertWorkerInvariant runs the grid sequentially and with 8 workers and
// byte-compares the JSON encodings of the row slices.
func assertWorkerInvariant[R any](t *testing.T, g sweep.Grid[R]) {
	t.Helper()
	seq, err := sweep.Run(context.Background(), &sweep.Engine{Workers: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep.Run(context.Background(), &sweep.Engine{Workers: 8}, g)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatalf("grid %s not worker-count invariant:\n seq=%s\n par=%s", g.Name, sj, pj)
	}
}

func TestFig10ParallelEquivalence(t *testing.T) {
	g := Fig10Grid(Quick, 1996, 0)
	if testing.Short() {
		// Point seeds depend only on point identity, never on position, so
		// a truncated grid exercises the same property at race-job cost.
		g.Points = g.Points[:4]
	}
	assertWorkerInvariant(t, g)
}

func TestFig11ParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the trimmed Figure 10 grid covers worker invariance")
	}
	assertWorkerInvariant(t, Fig11Grid(Quick, 1996))
}

package faulttest

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"wormlan/internal/sweep"
)

// TestStormOutcomesPinned hashes the full Outcome of every published storm
// — the default matrix, the alternative-routing matrix, and the torus half
// of the detection matrix — against testdata/storm_outcomes.json.  The
// other storm tests assert invariants and rerun-determinism only, so a
// runner change that quietly moved a default (multicast share, lane count,
// which checks run) would pass them; it cannot pass this.  The file was
// generated before RunStorm's two runners were merged and must not change
// in a refactor: on a deliberate model change, replace it with the JSON
// this test prints.
func TestStormOutcomesPinned(t *testing.T) {
	specs := append(DefaultStormMatrix(), VCStormMatrix()...)
	for _, s := range DetectionStormMatrix() {
		if s.Topo == "torus8x8" {
			specs = append(specs, s)
		}
	}
	if testing.Short() {
		// One oracle up/down storm, the two scheme storms the short VC
		// matrix runs, and one detection storm: every runner branch.
		specs = []StormSpec{specs[0], specs[4], specs[5], specs[9]}
	}
	raw, err := os.ReadFile("testdata/storm_outcomes.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	outcomes, err := sweep.Run(context.Background(), &sweep.Engine{}, StormGrid(specs, 1996))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for i, o := range outcomes {
		got[specs[i].Name] = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", o))))
		if want[specs[i].Name] != got[specs[i].Name] {
			t.Errorf("storm %s: outcome hash %s, pinned %q\n%+v", specs[i].Name, got[specs[i].Name], want[specs[i].Name], o)
		}
	}
	if t.Failed() && !testing.Short() {
		js, _ := json.MarshalIndent(got, "", " ")
		t.Logf("regenerated testdata/storm_outcomes.json:\n%s", js)
	}
}

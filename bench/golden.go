package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenSeed is the only seed golden.json holds fingerprints for; any
// other seed checks the invariants alone.
const goldenSeed = 1996

//go:embed golden.json
var goldenJSON []byte

// loadGolden returns the committed fingerprints, keyed by point.
func loadGolden(seed uint64) (map[string]string, error) {
	if seed != goldenSeed {
		return nil, nil
	}
	gold := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &gold); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return gold, nil
}

// updateGolden runs every workload's full table at the golden seed and
// rewrites the fingerprint file.  A point that fails is an error: a golden
// must not enshrine a broken run.
func updateGolden(path string, ws []workload) error {
	gold := map[string]string{}
	for _, w := range ws {
		u, err := runUntraced(w, goldenSeed, 0, nil)
		if err != nil {
			return err
		}
		if len(u.Failed) > 0 {
			return fmt.Errorf("%s: %d points failed, first: %s", w.Name, len(u.Failed), u.Failed[0])
		}
		for _, l := range u.Laps {
			for i, p := range l.Points {
				gold[l.IDs[i].key(w.Name)] = p.FP.hash()
			}
		}
		fmt.Fprintf(os.Stderr, "golden: %s: %d points\n", w.Name, u.attempted())
	}
	blob, err := json.MarshalIndent(gold, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

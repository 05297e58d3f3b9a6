package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareReports prints, per (workload, metric), how much worse report b
// is than report a, against the bound BENCHMARK.json fixes.  When both ran
// the same seed the simulated statistics and the work counts must be
// bit-equal.  Any violation makes the command fail.
func compareReports(w io.Writer, pathA, pathB, benchmarkPath string) error {
	var a, b report
	var bf benchmarkFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	if err := readJSON(benchmarkPath, &bf); err != nil {
		return err
	}
	bound := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bound[m.Name] = m.Bound
	}
	sameSeed := a.Header.Seed == b.Header.Seed
	fmt.Fprintf(w, "a: %s  commit %s  seed %d\nb: %s  commit %s  seed %d\n",
		pathA, a.Header.Commit, a.Header.Seed, pathB, b.Header.Commit, b.Header.Seed)
	if !sameSeed {
		fmt.Fprintln(w, "seeds differ: simulated statistics and counts are compared against the bound, not for equality")
	}
	byName := map[string]workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	violations, compared := 0, 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n== %s\n", wa.Name)
		if wb.OpsFailed > wa.OpsFailed {
			fmt.Fprintf(w, "  ops_failed rose from %d to %d  VIOLATION\n", wa.OpsFailed, wb.OpsFailed)
			violations++
		}
		check := func(defs []metricDef, ma, mb map[string]value, bounded bool) {
			for _, d := range defs {
				va, okA := ma[d.Name]
				vb, okB := mb[d.Name]
				if !okA || !okB {
					continue
				}
				compared++
				worse := ratio(vb.Value-va.Value, va.Value)
				if d.Better == "higher" {
					worse = -worse
				}
				verdict := ""
				switch {
				case d.Exact && sameSeed && wa.Laps == wb.Laps:
					verdict = "exact"
					if va.Value != vb.Value {
						verdict = "VIOLATION: must be bit-equal at one seed"
						violations++
					}
				case bounded:
					verdict = fmt.Sprintf("bound %.0f%%", 100*bound[d.Name])
					if worse > bound[d.Name] {
						verdict += "  VIOLATION"
						violations++
					}
				}
				fmt.Fprintf(w, "  %-32s %16.6g -> %-16.6g %+7.2f%% worse  %s\n",
					d.Name, va.Value, vb.Value, 100*worse, verdict)
			}
		}
		check(endToEndMetrics, wa.EndToEnd, wb.EndToEnd, true)
		check(perLayerMetrics, wa.PerLayer, wb.PerLayer, false)
	}
	if compared == 0 {
		return fmt.Errorf("the two reports share no workload metric")
	}
	if violations > 0 {
		return fmt.Errorf("%d metrics out of bounds", violations)
	}
	fmt.Fprintln(w, "\nall compared metrics within bounds")
	return nil
}

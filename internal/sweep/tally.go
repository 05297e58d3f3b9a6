package sweep

import (
	"fmt"
	"io"
	"time"

	"wormlan/internal/trace"
)

// Tally aggregates per-point execution metrics from Progress callbacks: how
// many points ran or failed, and the distribution of per-point wall-clock
// times.  It exists so cmd/mcbench -metrics can report
// where a figure's time went without every caller reimplementing the
// bookkeeping.
//
// Feed it through Hook (or call Observe from an existing OnProgress
// callback).  The engine serializes progress callbacks, so Tally needs no
// locking; read it only after the sweep returns.
type Tally struct {
	// Ran / Failed partition the completed points.
	Ran, Failed int
	// Elapsed is the distribution of per-point wall-clock times in
	// milliseconds.
	Elapsed trace.Histogram
	// Total is the summed execution time across points — CPU-time-ish under
	// parallel sweeps, as points overlap on the wall clock.
	Total time.Duration
}

// NewTally returns an empty tally.
func NewTally() *Tally {
	return &Tally{Elapsed: trace.Histogram{Name: "point-elapsed-ms"}}
}

// Observe folds one progress report into the tally.
func (t *Tally) Observe(p Progress) {
	if p.Err != nil {
		t.Failed++
		return
	}
	t.Ran++
	t.Elapsed.Add(float64(p.Elapsed.Milliseconds()))
	t.Total += p.Elapsed
}

// Hook returns an OnProgress callback that feeds the tally and then invokes
// next (which may be nil).
func (t *Tally) Hook(next func(Progress)) func(Progress) {
	return func(p Progress) {
		t.Observe(p)
		if next != nil {
			next(p)
		}
	}
}

// WriteSummary prints a one-figure execution report.
func (t *Tally) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "sweep: %d ran, %d failed; exec time %v\n",
		t.Ran, t.Failed, t.Total.Round(time.Millisecond))
	if t.Elapsed.Count > 0 {
		fmt.Fprintf(w, "sweep: %s\n", t.Elapsed.String())
	}
}

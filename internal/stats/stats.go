// Package stats provides the streaming mean/variance/min/max collector
// (Welford) the simulation experiments report latencies with.  Quantiles
// live in trace.Histogram.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates a streaming mean and variance.
type Welford struct {
	n          int64
	mean, m2   float64
	min, max   float64
	hasExtrema bool
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
	if !w.hasExtrema || x < w.min {
		w.min = x
	}
	if !w.hasExtrema || x > w.max {
		w.max = x
	}
	w.hasExtrema = true
}

// N returns the observation count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, NaN with no samples.  An empty window must
// not masquerade as a true zero: figure code that averages an empty window
// now fails loudly (NaN propagates, and refuses to marshal as JSON)
// instead of plotting a spurious zero-latency point.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Var returns the unbiased sample variance, NaN for fewer than two
// samples (the estimator is undefined there, not zero).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation (NaN for n < 2).
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min and Max return the extrema (NaN with no samples).
func (w *Welford) Min() float64 {
	if !w.hasExtrema {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation (NaN with no samples).
func (w *Welford) Max() float64 {
	if !w.hasExtrema {
		return math.NaN()
	}
	return w.max
}

// String formats mean +/- std (n).
func (w *Welford) String() string {
	return fmt.Sprintf("%.1f±%.1f (n=%d)", w.Mean(), w.Std(), w.n)
}

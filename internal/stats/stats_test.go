package stats

import (
	"math"
	"testing"
	"testing/quick"

	"wormlan/internal/rng"
)

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v", w.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if math.Abs(w.Var()-32.0/7) > 1e-12 {
		t.Fatalf("Var = %v", w.Var())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("extrema %v %v", w.Min(), w.Max())
	}
	if w.String() == "" {
		t.Fatal("empty String")
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.N() != 0 {
		t.Fatal("empty collector counts observations")
	}
	// An empty window is not a true zero: every moment must be NaN so
	// averaging an empty window fails loudly instead of plotting zero.
	for name, v := range map[string]float64{
		"Mean": w.Mean(), "Var": w.Var(), "Std": w.Std(),
		"Min": w.Min(), "Max": w.Max(),
	} {
		if !math.IsNaN(v) {
			t.Errorf("empty %s = %v, want NaN", name, v)
		}
	}
	w.Add(3)
	if w.N() != 1 || w.Mean() != 3 || w.Min() != 3 || w.Max() != 3 {
		t.Fatalf("single sample: n=%d mean=%v", w.N(), w.Mean())
	}
	if !math.IsNaN(w.Var()) {
		t.Fatalf("Var of one sample = %v, want NaN", w.Var())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 2
		r := rng.New(seed, 1)
		var w Welford
		var xs []float64
		for i := 0; i < n; i++ {
			x := r.Float64()*1000 - 500
			xs = append(xs, x)
			w.Add(x)
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Var()-ss/float64(n-1)) < 1e-6
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

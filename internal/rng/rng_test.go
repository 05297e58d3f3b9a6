package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 1)
	b := New(42, 1)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := New(42, 1)
	b := New(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 1 and 2 coincide on %d of 1000 draws", same)
	}
}

func TestSeedChangesStream(t *testing.T) {
	a := New(1, 7)
	b := New(2, 7)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3, 3)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4, 4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5, 5)
	for n := 1; n < 40; n++ {
		seen := make([]bool, n)
		for i := 0; i < 200*n; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("Intn(%d) never produced %d", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1, 1).Intn(0)
}

func TestInt63nBounds(t *testing.T) {
	s := New(7, 7)
	for n := int64(1); n < 40; n++ {
		seen := make([]bool, n)
		for i := int64(0); i < 200*n; i++ {
			v := s.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("Int63n(%d) never produced %d", n, v)
			}
		}
	}
	// Bounds far past 32 bits stay in range — the motivating case for the
	// 64-bit draw (reservoir sampling over long streams).
	big := int64(1) << 40
	for i := 0; i < 1000; i++ {
		if v := s.Int63n(big); v < 0 || v >= big {
			t.Fatalf("Int63n(2^40) = %d out of range", v)
		}
	}
}

func TestInt63nDeterministic(t *testing.T) {
	a, b := New(11, 3), New(11, 3)
	for i := 0; i < 100; i++ {
		if va, vb := a.Int63n(1e12), b.Int63n(1e12); va != vb {
			t.Fatalf("draw %d diverged: %d vs %d", i, va, vb)
		}
	}
}

func TestInt63nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(0) did not panic")
		}
	}()
	New(1, 1).Int63n(0)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(6, 6)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpMean(t *testing.T) {
	s := New(7, 7)
	for _, mean := range []float64{1, 10, 400, 1000} {
		sum := 0.0
		const n = 100000
		for i := 0; i < n; i++ {
			sum += s.Exp(mean)
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.03 {
			t.Fatalf("Exp mean = %v, want ~%v", got, mean)
		}
	}
}

func TestGeometricMeanAndSupport(t *testing.T) {
	s := New(8, 8)
	for _, mean := range []float64{2, 40, 400} {
		sum := 0.0
		const n = 100000
		for i := 0; i < n; i++ {
			v := s.Geometric(mean)
			if v < 1 {
				t.Fatalf("Geometric produced %d < 1", v)
			}
			sum += float64(v)
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.05 {
			t.Fatalf("Geometric(%v) mean = %v", mean, got)
		}
	}
}

func TestGeometricDegenerate(t *testing.T) {
	s := New(9, 9)
	for i := 0; i < 100; i++ {
		if v := s.Geometric(0.5); v != 1 {
			t.Fatalf("Geometric(0.5) = %d, want 1", v)
		}
		if v := s.Geometric(1); v != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", v)
		}
	}
}

func TestShuffleCoversArrangements(t *testing.T) {
	s := New(13, 13)
	counts := map[[3]int]int{}
	for i := 0; i < 6000; i++ {
		arr := [3]int{0, 1, 2}
		s.Shuffle(3, func(i, j int) { arr[i], arr[j] = arr[j], arr[i] })
		counts[arr]++
	}
	if len(counts) != 6 {
		t.Fatalf("shuffle produced %d of 6 arrangements", len(counts))
	}
	for arr, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("arrangement %v count %d far from uniform 1000", arr, c)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkGeometric400(b *testing.B) {
	s := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = s.Geometric(400)
	}
}

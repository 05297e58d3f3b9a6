package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

type tcfg struct {
	Scheme string  `json:"scheme"`
	Load   float64 `json:"load"`
	N      int     `json:"n"`
}

type trow struct {
	Scheme string
	Load   float64
	Seed   uint64
	Mean   float64
}

// mkGrid builds a synthetic grid whose rows are pure functions of the
// derived seed and config — the determinism contract in miniature.
func mkGrid(name string, baseSeed uint64, schemes []string, loads []float64) Grid[trow] {
	g := Grid[trow]{Name: name, BaseSeed: baseSeed}
	for _, s := range schemes {
		for _, l := range loads {
			s, l := s, l
			g.Add(tcfg{Scheme: s, Load: l, N: 3}, func(_ context.Context, seed uint64) (trow, error) {
				return trow{Scheme: s, Load: l, Seed: seed,
					Mean: l * math.Sqrt(float64(seed%1e6)+2)}, nil
			})
		}
	}
	return g
}

func TestRunOrderAndWorkerEquivalence(t *testing.T) {
	schemes := []string{"a", "b", "c"}
	loads := []float64{0.01, 0.02, 0.03, 0.04}
	seq, err := Run(context.Background(), &Engine{Workers: 1}, mkGrid("g", 7, schemes, loads))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(schemes)*len(loads) {
		t.Fatalf("rows %d", len(seq))
	}
	// Row order must follow point order.
	if seq[0].Scheme != "a" || seq[0].Load != 0.01 || seq[len(seq)-1].Scheme != "c" {
		t.Fatalf("row order: %+v", seq)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		par, err := Run(context.Background(), &Engine{Workers: workers}, mkGrid("g", 7, schemes, loads))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d rows differ from sequential", workers)
		}
	}
}

// TestSeedDerivationProperties: derived per-point seeds are collision-free
// across a realistic grid and distinct grids/base seeds give distinct
// streams.
func TestSeedDerivationProperties(t *testing.T) {
	seen := map[uint64]string{}
	keys := map[string]string{}
	for _, grid := range []string{"fig10", "fig11", "storms"} {
		for _, base := range []uint64{0, 1, 1996, ^uint64(0)} {
			for s := 0; s < 6; s++ {
				for l := 0; l < 12; l++ {
					cfg := tcfg{Scheme: fmt.Sprintf("s%d", s), Load: float64(l) / 100, N: l}
					id := fmt.Sprintf("%s/%d/%+v", grid, base, cfg)
					key, seed, err := PointIdentity(grid, base, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if prev, dup := seen[seed]; dup {
						t.Fatalf("seed collision: %s and %s both derive %d", prev, id, seed)
					}
					if prev, dup := keys[key]; dup {
						t.Fatalf("key collision: %s and %s both derive %s", prev, id, key)
					}
					seen[seed] = id
					keys[key] = id
				}
			}
		}
	}
	// Identity is a pure function.
	k1, s1, _ := PointIdentity("fig10", 1996, tcfg{Scheme: "tree", Load: 0.03, N: 1})
	k2, s2, _ := PointIdentity("fig10", 1996, tcfg{Scheme: "tree", Load: 0.03, N: 1})
	if k1 != k2 || s1 != s2 {
		t.Fatal("PointIdentity not stable across calls")
	}
}

// TestSeedGoldenValues pins the derivation against golden values so that
// a Go version bump, a json encoding change, or a hash tweak — anything
// that would silently re-seed every published figure — fails loudly.
func TestSeedGoldenValues(t *testing.T) {
	cases := []struct {
		grid     string
		base     uint64
		cfg      any
		wantKey  string
		wantSeed uint64
	}{
		{"fig10", 1996, tcfg{Scheme: "hamiltonian", Load: 0.015, N: 0},
			"758376f844a7bfc5dd9c773c6449d2db", 0x4cd85528abedfe51},
		{"fig10", 1996, tcfg{Scheme: "tree-flood", Load: 0.045, N: 0},
			"dfacaa1c2697444519da82214de010cb", 0x1cd2be774a248126},
		{"fig11", 1, tcfg{Scheme: "hamiltonian", Load: 0.01, N: 2},
			"8f6968d95dd3981c959b2c77b3418c1f", 0x16489d5e9606bcfa},
		{"storms", 0, map[string]int{"window": 30000},
			"057f743b6e85964775a227b5659c012f", 0x5c329375e5e36c10},
	}
	for _, c := range cases {
		key, seed, err := PointIdentity(c.grid, c.base, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if key != c.wantKey || seed != c.wantSeed {
			t.Errorf("PointIdentity(%s, %d, %+v) = (%s, %#x), golden (%s, %#x)",
				c.grid, c.base, c.cfg, key, seed, c.wantKey, c.wantSeed)
		}
	}
}

func TestErrorAbortsSweepDeterministically(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		g := Grid[trow]{Name: "g", BaseSeed: 1}
		for i := 0; i < 12; i++ {
			i := i
			g.Add(tcfg{N: i}, func(context.Context, uint64) (trow, error) {
				if i == 5 {
					return trow{}, boom
				}
				return trow{Load: float64(i)}, nil
			})
		}
		_, err := Run(context.Background(), &Engine{Workers: workers}, g)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if !strings.Contains(err.Error(), "point 5") {
			t.Fatalf("workers=%d: error does not name the failing point: %v", workers, err)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	g := Grid[trow]{Name: "g", BaseSeed: 1}
	for i := 0; i < 64; i++ {
		i := i
		g.Add(tcfg{N: i}, func(ctx context.Context, _ uint64) (trow, error) {
			started <- struct{}{}
			<-ctx.Done()
			return trow{}, ctx.Err()
		})
	}
	go func() {
		<-started
		cancel()
	}()
	_, err := Run(ctx, &Engine{Workers: 2}, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := len(started); n > 4 {
		t.Fatalf("%d points started after cancellation", n)
	}
}

func TestProgressStream(t *testing.T) {
	var seen []Progress
	g := mkGrid("g", 5, []string{"x", "y"}, []float64{0.01, 0.02})
	if _, err := Run(context.Background(), &Engine{Workers: 4,
		OnProgress: func(p Progress) { seen = append(seen, p) }}, g); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("progress callbacks %d, want 4", len(seen))
	}
	for i, p := range seen {
		if p.Done != i+1 || p.Total != 4 || p.Grid != "g" || p.Key == "" {
			t.Fatalf("progress %d malformed: %+v", i, p)
		}
	}
}

func TestEmptyGrid(t *testing.T) {
	rows, err := Run(context.Background(), nil, Grid[trow]{Name: "empty"})
	if err != nil || rows != nil {
		t.Fatalf("empty grid: %v %v", rows, err)
	}
}

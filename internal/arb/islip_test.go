package arb

import (
	"testing"

	"wormlan/internal/rng"
)

func allFree(int) bool { return true }

// scanMatch is the port-scan arbitration discipline the fabric uses by
// default, reduced to the arbiter's terms: inputs are visited in rotated
// ascending order and an input wins its (single) requested output iff the
// output is still free when the scan reaches it.
func scanMatch(req []int, start int, free []bool) []int {
	n := len(req)
	out := make([]int, n)
	taken := make([]bool, len(free))
	for i := range out {
		out[i] = -1
	}
	for k := 0; k < n; k++ {
		i := (start + k) % n
		o := req[i]
		if o < 0 || !free[o] || taken[o] {
			continue
		}
		taken[o] = true
		out[i] = o
	}
	return out
}

// TestConflictFreeEquivalence: when every requested output is wanted by
// exactly one input (the NumVCs=1 common case between uncontended worms),
// one iSLIP iteration and the port scan produce the identical match set —
// every requester is served, regardless of pointer or scan positions.
func TestConflictFreeEquivalence(t *testing.T) {
	const n = 8
	r := rng.New(42, 1)
	for trial := 0; trial < 200; trial++ {
		a := New(n, n, 1, uint64(trial))
		// A random partial permutation: conflict-free by construction.
		perm := r.Perm(n)
		req := make([]int, n)
		free := make([]bool, n)
		for i := range req {
			req[i] = -1
			free[i] = true
		}
		nReq := 1 + r.Intn(n)
		for i := 0; i < nReq; i++ {
			req[i] = perm[i]
		}
		a.Begin()
		for i, o := range req {
			if o >= 0 {
				a.Request(i, []int{o})
			}
		}
		got := a.Match(allFree)
		want := scanMatch(req, trial%n, free)
		for i := range req {
			if req[i] < 0 {
				continue
			}
			if got[i] != want[i] || got[i] != req[i] {
				t.Fatalf("trial %d input %d: islip=%d scan=%d want %d", trial, i, got[i], want[i], req[i])
			}
		}
	}
}

// TestStarvationFreedom: every persistent single-output request is granted
// within iters x ports cells of appearing, across random contention
// patterns (multiple inputs camped on the same outputs).
func TestStarvationFreedom(t *testing.T) {
	const n = 8
	for _, iters := range []int{1, 2, 4} {
		r := rng.New(7, uint64(iters))
		for trial := 0; trial < 100; trial++ {
			a := New(n, n, iters, uint64(trial))
			req := make([]int, n) // persistent requested output per input
			for i := range req {
				req[i] = r.Intn(n)
			}
			served := make([]bool, n)
			bound := iters * n
			for cell := 0; cell < bound; cell++ {
				a.Begin()
				for i := range req {
					if !served[i] {
						a.Request(i, []int{req[i]})
					}
				}
				m := a.Match(allFree)
				for i := range req {
					if !served[i] && m[i] >= 0 {
						if m[i] != req[i] {
							t.Fatalf("iters=%d trial %d: input %d matched %d, requested %d", iters, trial, i, m[i], req[i])
						}
						served[i] = true
					}
				}
			}
			for i := range served {
				if !served[i] {
					t.Fatalf("iters=%d trial %d: input %d starved for %d cells (wanted output %d)",
						iters, trial, i, bound, req[i])
				}
			}
		}
	}
}

// TestPointerDeterminism: same seed and request sequence => identical
// matches and identical grant/accept pointer trajectories, cell by cell.
func TestPointerDeterminism(t *testing.T) {
	const n = 6
	run := func(seed uint64) ([]int, []int, []int) {
		a := New(n, n, 2, seed)
		r := rng.New(99, 0)
		var matches []int
		for cell := 0; cell < 64; cell++ {
			a.Begin()
			for i := 0; i < n; i++ {
				if r.Intn(3) > 0 {
					a.Request(i, []int{r.Intn(n)})
				}
			}
			m := a.Match(allFree)
			matches = append(matches, append([]int(nil), m...)...)
		}
		g := make([]int, n)
		ac := make([]int, n)
		for i := 0; i < n; i++ {
			g[i], ac[i] = a.gptr[i], a.aptr[i]
		}
		return matches, g, ac
	}
	m1, g1, a1 := run(123)
	m2, g2, a2 := run(123)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("match divergence at %d: %d vs %d", i, m1[i], m2[i])
		}
	}
	for i := range g1 {
		if g1[i] != g2[i] || a1[i] != a2[i] {
			t.Fatalf("pointer divergence at %d: g %d/%d a %d/%d", i, g1[i], g2[i], a1[i], a2[i])
		}
	}
}

// TestRoundRobinService: N inputs persistently contending for one output
// are each served exactly once per N cells once the pointer settles — the
// round-robin discipline the grant pointer exists to provide.
func TestRoundRobinService(t *testing.T) {
	const n = 5
	a := New(n, n, 1, 3)
	count := make([]int, n)
	for cell := 0; cell < 4*n; cell++ {
		a.Begin()
		for i := 0; i < n; i++ {
			a.Request(i, []int{0})
		}
		m := a.Match(allFree)
		won := -1
		for i := range m {
			if m[i] == 0 {
				if won >= 0 {
					t.Fatalf("cell %d: output 0 double-matched to %d and %d", cell, won, i)
				}
				won = i
			}
		}
		if won < 0 {
			t.Fatalf("cell %d: contended output went unmatched", cell)
		}
		count[won]++
	}
	for i, c := range count {
		if c != 4 {
			t.Fatalf("input %d served %d times in %d cells, want %d", i, c, 4*n, 4)
		}
	}
}

// TestMultiOutputRequest: an input requesting several outputs (a multicast
// replication set) is matched to exactly one of them per cell.
func TestMultiOutputRequest(t *testing.T) {
	a := New(4, 4, 3, 11)
	for cell := 0; cell < 16; cell++ {
		a.Begin()
		a.Request(0, []int{1, 2, 3})
		a.Request(1, []int{2})
		m := a.Match(allFree)
		if m[0] < 1 || m[0] > 3 {
			t.Fatalf("cell %d: input 0 matched %d outside its request set", cell, m[0])
		}
		if m[1] != 2 && m[0] != 2 {
			t.Fatalf("cell %d: output 2 free but input 1 unmatched", cell)
		}
	}
}

// TestFreeGate: outputs reported busy are never granted.
func TestFreeGate(t *testing.T) {
	a := New(3, 3, 2, 5)
	busy := map[int]bool{0: true, 2: true}
	for cell := 0; cell < 9; cell++ {
		a.Begin()
		for i := 0; i < 3; i++ {
			a.Request(i, []int{0, 1, 2})
		}
		m := a.Match(func(o int) bool { return !busy[o] })
		matched := 0
		for i := range m {
			if m[i] >= 0 {
				if busy[m[i]] {
					t.Fatalf("cell %d: busy output %d matched to input %d", cell, m[i], i)
				}
				matched++
			}
		}
		if matched != 1 {
			t.Fatalf("cell %d: %d matches with one free output", cell, matched)
		}
	}
}

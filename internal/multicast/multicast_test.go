package multicast

import (
	"runtime"
	"testing"
	"testing/quick"

	"wormlan/internal/rng"
	"wormlan/internal/topology"
)

func ids(ns ...int) []topology.NodeID {
	out := make([]topology.NodeID, len(ns))
	for i, n := range ns {
		out[i] = topology.NodeID(n)
	}
	return out
}

func TestNewGroupSortsAndValidates(t *testing.T) {
	g, err := NewGroup(1, ids(9, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	if g.Members[0] != 3 || g.Members[1] != 7 || g.Members[2] != 9 {
		t.Fatalf("members %v", g.Members)
	}
	if g.Lowest() != 3 {
		t.Fatal("Lowest")
	}
	if !g.Contains(7) || g.Contains(8) {
		t.Fatal("Contains")
	}
	if _, err := NewGroup(2, ids(1)); err == nil {
		t.Fatal("singleton group accepted")
	}
	if _, err := NewGroup(3, ids(1, 1, 2)); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

// reversals returns the number of ID-order reversals along one lap of the
// circuit.  The ID-ordered circuit always has exactly 1 (the wrap); each
// additional reversal would require one more buffer class to stay
// deadlock-free.
func reversals(c *Circuit) int {
	n := 0
	for i, h := range c.Order {
		if c.Order[(i+1)%len(c.Order)] < h {
			n++
		}
	}
	return n
}

func TestCircuitByID(t *testing.T) {
	g, _ := NewGroup(1, ids(5, 2, 8, 3))
	c := NewCircuitByID(g)
	wantNext := map[int]int{2: 3, 3: 5, 5: 8, 8: 2}
	for from, to := range wantNext {
		got, err := c.Successor(topology.NodeID(from))
		if err != nil {
			t.Fatal(err)
		}
		if got != topology.NodeID(to) {
			t.Fatalf("Successor(%d) = %d, want %d", from, got, to)
		}
	}
	if _, err := c.Successor(99); err == nil {
		t.Fatal("non-member successor")
	}
	if n := reversals(c); n != 1 {
		t.Fatalf("ID circuit reversals = %d, want 1", n)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestTreeByIDHeapLayout(t *testing.T) {
	g, _ := NewGroup(1, ids(10, 36, 12, 49, 19, 23, 27, 52, 41))
	tr, err := NewTreeByID(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root != 10 {
		t.Fatalf("root = %d", tr.Root)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Heap layout over sorted members [10 12 19 23 27 36 41 49 52]:
	// children of 10 are 12, 19.
	c := tr.Children(10)
	if len(c) != 2 || c[0] != 12 || c[1] != 19 {
		t.Fatalf("children of root: %v", c)
	}
	p, err := tr.Parent(52)
	if err != nil || p != 23 {
		t.Fatalf("parent of 52 = %d, %v", p, err)
	}
	if _, err := tr.Parent(99); err == nil {
		t.Fatal("non-member parent")
	}
	if d := tr.Depth(); d != 3 {
		t.Fatalf("depth = %d, want 3", d)
	}
}

func TestTreeByIDArity(t *testing.T) {
	g, _ := NewGroup(1, ids(1, 2, 3, 4, 5, 6, 7))
	if _, err := NewTreeByID(g, 0); err == nil {
		t.Fatal("arity 0 accepted")
	}
	tr, err := NewTreeByID(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Children(1)) != 3 {
		t.Fatalf("root children %v", tr.Children(1))
	}
	// Chain (arity 1) degenerates to the Hamiltonian order.
	chain, err := NewTreeByID(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Depth() != 6 {
		t.Fatalf("chain depth = %d", chain.Depth())
	}
}

func TestTreeGreedyValidAndCheaper(t *testing.T) {
	topo := topology.Torus(4, 4, 1, 1)
	hosts := topo.Hosts()
	var members []topology.NodeID
	for i := 0; i < 10; i++ {
		members = append(members, hosts[i*3%len(hosts)])
	}
	g, err := NewGroup(1, members)
	if err != nil {
		t.Fatal(err)
	}
	byID, _ := NewTreeByID(g, 2)
	greedy, err := NewTreeGreedy(topo, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := greedy.Validate(); err != nil {
		t.Fatal(err)
	}
	if greedy.WireHops(topo) > byID.WireHops(topo) {
		t.Fatalf("greedy tree %d hops > heap tree %d hops",
			greedy.WireHops(topo), byID.WireHops(topo))
	}
}

func TestTreeNeighbours(t *testing.T) {
	g, _ := NewGroup(1, ids(1, 2, 3, 4, 5))
	tr, _ := NewTreeByID(g, 2)
	// sorted [1 2 3 4 5]: children(1)={2,3}, children(2)={4,5}
	n := tr.Neighbours(2)
	if len(n) != 3 || n[0] != 1 || n[1] != 4 || n[2] != 5 {
		t.Fatalf("neighbours of 2: %v", n)
	}
	rootN := tr.Neighbours(1)
	if len(rootN) != 2 {
		t.Fatalf("root neighbours: %v", rootN)
	}
}

func TestTreeInvariantProperty(t *testing.T) {
	// Property: for random member sets and arities, NewTreeByID always
	// produces a valid ID-ordered tree covering all members.
	err := quick.Check(func(seed uint64, sizeRaw, arityRaw uint8) bool {
		r := rng.New(seed, 3)
		size := int(sizeRaw%30) + 2
		arity := int(arityRaw%4) + 1
		seen := map[int]bool{}
		var members []topology.NodeID
		for len(members) < size {
			v := r.Intn(1000)
			if !seen[v] {
				seen[v] = true
				members = append(members, topology.NodeID(v))
			}
		}
		g, err := NewGroup(1, members)
		if err != nil {
			return false
		}
		tr, err := NewTreeByID(g, arity)
		if err != nil {
			return false
		}
		return tr.Validate() == nil
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// raceBuild is set in a -race build (race_test.go).
var raceBuild bool

// TestTreeGreedyAllocBudget pins a greedy tree's bytes: its maps and one
// reusable hop row, nothing per switch that only the up/down labelling
// reads (torus8x8, a group of ten).
func TestTreeGreedyAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("byte counts under -race include the detector's own")
	}
	topo := topology.Torus(8, 8, 1, 1)
	hosts := topo.Hosts()
	var members []topology.NodeID
	for i := 0; i < 10; i++ {
		members = append(members, hosts[i*6])
	}
	g, err := NewGroup(1, members)
	if err != nil {
		t.Fatal(err)
	}
	const runs, budget = 100, 3500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := NewTreeGreedy(topo, g, 2); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if bytes > budget {
		t.Fatalf("NewTreeGreedy on torus8x8, 10 members: %d B, budget %d B", bytes, budget)
	}
	t.Logf("NewTreeGreedy on torus8x8, 10 members: %d B", bytes)
}

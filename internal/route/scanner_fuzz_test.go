package route

import (
	"testing"

	"wormlan/internal/topology"
)

// treeFromBytes decodes a small multicast tree from fuzz input: each node
// takes one byte for its fan-out (1..3), and each branch one byte for its
// port and one for whether it has a subtree (depth at most 3).  Exhausted
// input reads as zero bytes.
func treeFromBytes(data []byte) *Tree {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var node func(depth int) *Tree
	node = func(depth int) *Tree {
		t := &Tree{}
		for n := 1 + next()%3; n > 0; n-- {
			br := Branch{Port: topology.PortID(next() % (MaxPort + 1))}
			if depth < 3 && next()%2 == 1 {
				br.Sub = node(depth + 1)
			}
			t.Branches = append(t.Branches, br)
		}
		return t
	}
	return node(0)
}

// FuzzScannerMatchesSplit holds the switch's byte-at-a-time header scanner
// to SplitHeader, the Figure 2 grammar's one parser:
//
//   - on the encoding of a random tree, done fires exactly at the last
//     byte, and SplitHeader rejects every shorter prefix;
//   - on arbitrary bytes, done implies SplitHeader accepts the prefix read
//     so far, unless a top-level port byte was BroadcastPort, which only
//     SplitHeader rejects.
func FuzzScannerMatchesSplit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 5, 1, 1, 7, 0})
	f.Add([]byte{0xFF})
	f.Add([]byte{3, 1, 2, 0xFF, 0xFF})
	f.Add([]byte{0xFE, 1, 0xFF})
	f.Add([]byte{4, 0, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := Encode(treeFromBytes(data)); err == nil {
			var s Scanner
			for i, b := range h {
				done, err := s.Next(b)
				if err != nil {
					t.Fatalf("header %x: byte %d: %v", h, i, err)
				}
				if done != (i == len(h)-1) {
					t.Fatalf("header %x: done=%v at byte %d of %d", h, done, i, len(h))
				}
			}
			for k := range h {
				if _, err := SplitHeader(h[:k]); err == nil {
					t.Fatalf("SplitHeader accepts the %d-byte prefix of %x", k, h)
				}
			}
		}

		var s Scanner
		broadcast := false
		for i, b := range data {
			if s.skip == 0 && !s.expectPtr && b == BroadcastPort {
				broadcast = true
			}
			done, err := s.Next(b)
			if err != nil {
				return
			}
			if !done {
				continue
			}
			_, err = SplitHeader(data[:i+1])
			if broadcast != (err != nil) {
				t.Fatalf("scanner done at byte %d of %x (top-level broadcast port %v), SplitHeader error %v",
					i, data, broadcast, err)
			}
			if s != (Scanner{}) {
				t.Fatalf("scanner not zero after done: %+v", s)
			}
			return
		}
	})
}

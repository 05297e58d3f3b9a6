package flit

import (
	"testing"
	"testing/quick"
)

func TestWormWireSizeAndValidate(t *testing.T) {
	w := &Worm{ID: 1, Header: []byte{1, 2, 3}, PayloadLen: 400}
	if w.WireSize() != 404 {
		t.Fatalf("WireSize = %d", w.WireSize())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]*Worm{
		"empty header": {ID: 1, PayloadLen: 4},
		"negative":     {ID: 2, Header: []byte{1}, PayloadLen: -1},
		"oversized":    {ID: 3, Header: []byte{1}, PayloadLen: MaxWormSize},
	}
	for name, w := range cases {
		if err := w.Validate(); err == nil {
			t.Errorf("%s: invalid worm validated", name)
		}
	}
}

func TestStreamProducesHeaderPayloadTail(t *testing.T) {
	w := &Worm{ID: 7, Header: []byte{9, 4}, PayloadLen: 3}
	s := NewStream(w, w.Header)
	var kinds []Kind
	var bytes []byte
	for {
		f, ok := s.Next()
		if !ok {
			break
		}
		kinds = append(kinds, f.Kind)
		if f.Kind == Header {
			bytes = append(bytes, f.B)
		}
		if f.W != w {
			t.Fatal("flit points at wrong worm")
		}
	}
	wantKinds := []Kind{Header, Header, Payload, Payload, Payload, Tail}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range kinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("kinds = %v, want %v", kinds, wantKinds)
		}
	}
	if bytes[0] != 9 || bytes[1] != 4 {
		t.Fatalf("header bytes = %v", bytes)
	}
}

func TestStreamRestampedHeader(t *testing.T) {
	// Downstream of a multicast stamp, the stream carries the stamped
	// header, not the worm's original one.
	w := &Worm{ID: 7, Header: []byte{1, 2, 3}, PayloadLen: 2}
	s := NewStream(w, []byte{0xFF})
	f, _ := s.Next()
	if f.Kind != Header || f.B != 0xFF {
		t.Fatalf("first flit %v", f)
	}
	if s.Remaining() != 3 { // 2 payload + tail
		t.Fatalf("Remaining = %d", s.Remaining())
	}
}

func TestStreamRemainingProperty(t *testing.T) {
	err := quick.Check(func(hRaw, pRaw uint8) bool {
		h := make([]byte, int(hRaw%16)+1)
		w := &Worm{ID: 1, Header: h, PayloadLen: int(pRaw % 64)}
		s := NewStream(w, h)
		want := w.WireSize()
		for {
			if s.Remaining() != want {
				return false
			}
			_, ok := s.Next()
			if !ok {
				return want == 0
			}
			want--
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestStreamExhausted(t *testing.T) {
	w := &Worm{ID: 1, Header: []byte{1}, PayloadLen: 0}
	s := NewStream(w, w.Header)
	n := 0
	for {
		_, ok := s.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 2 { // header + tail
		t.Fatalf("stream produced %d flits", n)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream produced flits after tail")
	}
}

func TestReassembler(t *testing.T) {
	w := &Worm{ID: 5, Header: []byte{1}, PayloadLen: 4}
	s := NewStream(w, []byte{0xFF}) // as delivered: bare END header
	var r Reassembler
	done := false
	for {
		f, ok := s.Next()
		if !ok {
			break
		}
		var err error
		done, err = r.Feed(f)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !done {
		t.Fatal("reassembler did not complete on tail")
	}
	if !r.Complete() {
		t.Fatalf("incomplete: %d of %d payload bytes", r.payload, w.PayloadLen)
	}
	if r.Worm() != w {
		t.Fatal("wrong worm")
	}
}

func TestReassemblerRejectsInterleaving(t *testing.T) {
	w1 := &Worm{ID: 1, Header: []byte{1}, PayloadLen: 2}
	w2 := &Worm{ID: 2, Header: []byte{1}, PayloadLen: 2}
	var r Reassembler
	if _, err := r.Feed(Flit{W: w1, Tag: Tag{Kind: Payload}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Feed(Flit{W: w2, Tag: Tag{Kind: Payload}}); err == nil {
		t.Fatal("interleaved worm accepted")
	}
	r.Reset()
	if _, err := r.Feed(Flit{W: w2, Tag: Tag{Kind: Payload}}); err != nil {
		t.Fatalf("after reset: %v", err)
	}
}

func TestStrings(t *testing.T) {
	w := &Worm{ID: 3, Header: []byte{7}}
	if s := (Flit{W: w, Tag: Tag{Kind: Header, B: 7}}).String(); s != "w3:H[7]" {
		t.Fatalf("flit string %q", s)
	}
	if s := (Flit{}).String(); s != "<empty>" {
		t.Fatalf("empty flit string %q", s)
	}
	if Unicast.String() != "unicast" || MulticastTree.String() != "multicast-tree" || Broadcast.String() != "broadcast" {
		t.Fatal("mode strings")
	}
	if Header.String() != "H" || Payload.String() != "P" || Tail.String() != "T" || Kind(9).String() != "?" {
		t.Fatal("kind strings")
	}
}

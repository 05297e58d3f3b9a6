package adapter

import "fmt"

// Pool is a byte-granular buffer pool, one per buffer class per adapter
// (Figure 7), plus an optional shared host-DMA extension pool per adapter
// (the [VLB96] trick of overflowing transit worms into host memory,
// Section 4).
type Pool struct {
	Name string
	Cap  int
	Used int
	// Peak tracks the high-water mark for buffer-occupancy studies.
	Peak int
}

// Free returns the available bytes.
func (p *Pool) Free() int { return p.Cap - p.Used }

func (p *Pool) take(n int) {
	p.Used += n
	if p.Used > p.Cap {
		panic(fmt.Sprintf("adapter: pool %s over-reserved (%d/%d)", p.Name, p.Used, p.Cap))
	}
	if p.Used > p.Peak {
		p.Peak = p.Used
	}
}

func (p *Pool) put(n int) {
	p.Used -= n
	if p.Used < 0 {
		panic(fmt.Sprintf("adapter: pool %s over-released", p.Name))
	}
}

// Reservation records where a worm's bytes were reserved: primarily in a
// class pool, spilling into the DMA extension when the class pool alone is
// too small.
type Reservation struct {
	class *Pool
	dma   *Pool
	nCls  int
	nDMA  int
}

// Spilled returns how many bytes overflowed to the host DMA extension.
func (r Reservation) Spilled() int { return r.nDMA }

// reserve attempts to reserve n bytes against the class pool, spilling the
// remainder to the DMA pool (if any).  It returns ok=false without side
// effects when the combined space is insufficient — the arriving worm will
// be dropped and NACKed (Figure 5).
func reserve(class, dma *Pool, n int) (Reservation, bool) {
	fromClass := n
	if fromClass > class.Free() {
		fromClass = class.Free()
	}
	spill := n - fromClass
	if spill > 0 && (dma == nil || dma.Free() < spill) {
		return Reservation{}, false
	}
	class.take(fromClass)
	r := Reservation{class: class, nCls: fromClass}
	if spill > 0 {
		dma.take(spill)
		r.dma = dma
		r.nDMA = spill
	}
	return r, true
}

// release returns the reservation's bytes to their pools.
func (r Reservation) release() {
	if r.nCls > 0 {
		r.class.put(r.nCls)
	}
	if r.nDMA > 0 {
		r.dma.put(r.nDMA)
	}
}

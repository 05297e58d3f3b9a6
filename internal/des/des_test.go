package des

import (
	"errors"
	"testing"
)

func TestEventOrderAndClock(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(10, func() { order = append(order, 1) })
	k.At(5, func() {
		order = append(order, 0)
		if k.Now() != 5 {
			t.Fatalf("Now = %d inside event at 5", k.Now())
		}
	})
	k.At(10, func() { order = append(order, 2) })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 10 {
		t.Fatalf("final Now = %d", k.Now())
	}
}

func TestAfter(t *testing.T) {
	k := NewKernel()
	var at Time
	k.After(7, func() {
		k.After(3, func() { at = k.Now() })
	})
	k.Run(0)
	if at != 10 {
		t.Fatalf("nested After fired at %d, want 10", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(2, func() {})
	})
	k.Run(0)
}

func TestNegativeAfterPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestHalt(t *testing.T) {
	k := NewKernel()
	sentinel := errors.New("stop")
	ran := 0
	k.At(1, func() { ran++; k.Halt(sentinel) })
	k.At(2, func() { ran++ })
	if err := k.Run(0); !errors.Is(err, sentinel) {
		t.Fatalf("Run returned %v", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d events after halt", ran)
	}
}

func TestDeadline(t *testing.T) {
	k := NewKernel()
	ran := false
	k.At(100, func() { ran = true })
	k.Run(50)
	if ran {
		t.Fatal("event past deadline ran")
	}
	if k.Now() != 50 {
		t.Fatalf("Now = %d, want deadline 50", k.Now())
	}
}

func TestDeadlineAdvancesIdleClock(t *testing.T) {
	k := NewKernel()
	k.At(5, func() {})
	k.Run(500)
	if k.Now() != 500 {
		t.Fatalf("Now = %d, want 500", k.Now())
	}
}

type countTicker struct {
	k     *Kernel
	ticks []Time
	limit int
}

func (c *countTicker) Tick(now Time) bool {
	c.ticks = append(c.ticks, now)
	return len(c.ticks) < c.limit
}

func TestTickerRunsPerByteTime(t *testing.T) {
	k := NewKernel()
	c := &countTicker{k: k, limit: 5}
	k.At(10, func() { k.Activate(c) })
	k.Run(0)
	if len(c.ticks) != 5 {
		t.Fatalf("ticker ran %d times", len(c.ticks))
	}
	for i, tm := range c.ticks {
		if want := Time(11 + i); tm != want {
			t.Fatalf("tick %d at %d, want %d", i, tm, want)
		}
	}
}

func TestTickerReactivation(t *testing.T) {
	k := NewKernel()
	c := &countTicker{k: k, limit: 2}
	k.At(0, func() { k.Activate(c) })
	k.At(100, func() {
		c.limit = 4
		k.Activate(c)
	})
	k.Run(0)
	if len(c.ticks) != 4 {
		t.Fatalf("ticker ran %d times, want 4", len(c.ticks))
	}
	if c.ticks[2] != 101 {
		t.Fatalf("reactivated tick at %d, want 101", c.ticks[2])
	}
}

func TestActivateIdempotent(t *testing.T) {
	k := NewKernel()
	c := &countTicker{k: k, limit: 3}
	k.At(0, func() {
		k.Activate(c)
		k.Activate(c) // must not double-tick
	})
	k.Run(0)
	if len(c.ticks) != 3 {
		t.Fatalf("ticks = %v", c.ticks)
	}
	// ticks must be at distinct consecutive times
	for i := 1; i < len(c.ticks); i++ {
		if c.ticks[i] != c.ticks[i-1]+1 {
			t.Fatalf("non-consecutive ticks %v", c.ticks)
		}
	}
}

// TestSecondTickerPanics pins the one-ticker kernel: re-activating its
// ticker is fine, activating a different one is a model bug.
func TestSecondTickerPanics(t *testing.T) {
	k := NewKernel()
	first := &countTicker{k: k, limit: 1}
	k.Activate(first)
	k.Activate(first)
	defer func() {
		if recover() == nil {
			t.Fatal("a second ticker did not panic")
		}
	}()
	k.Activate(&countTicker{k: k, limit: 1})
}

func TestCancelEvent(t *testing.T) {
	k := NewKernel()
	ran := false
	e := k.At(5, func() { ran = true })
	k.At(1, func() { k.Cancel(e) })
	k.Run(0)
	if ran {
		t.Fatal("canceled event ran")
	}
}

func BenchmarkKernelTicker(b *testing.B) {
	k := NewKernel()
	c := &countTicker{limit: b.N}
	k.At(0, func() { k.Activate(c) })
	b.ResetTimer()
	k.Run(0)
}

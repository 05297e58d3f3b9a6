package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int64
	times := []int64{5, 1, 9, 3, 3, 7, 0, 2}
	for _, tm := range times {
		tm := tm
		q.Schedule(tm, func() { got = append(got, tm) })
	}
	for q.Len() > 0 {
		q.Pop().Fire()
	}
	want := append([]int64(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestFIFOAmongSimultaneous(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.Schedule(42, func() { got = append(got, i) })
	}
	for q.Len() > 0 {
		q.Pop().Fire()
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events fired out of schedule order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := map[int]bool{}
	var handles []Handle
	for i := 0; i < 10; i++ {
		i := i
		handles = append(handles, q.Schedule(int64(i), func() { fired[i] = true }))
	}
	q.Cancel(handles[3])
	q.Cancel(handles[7])
	q.Cancel(handles[7]) // double-cancel is a no-op
	if q.Len() != 8 {
		t.Fatalf("Len = %d after cancels, want 8", q.Len())
	}
	if handles[3].Scheduled() {
		t.Fatal("canceled handle still reports Scheduled")
	}
	if !handles[5].Scheduled() {
		t.Fatal("live handle does not report Scheduled")
	}
	for q.Len() > 0 {
		q.Pop().Fire()
	}
	for i := 0; i < 10; i++ {
		want := i != 3 && i != 7
		if fired[i] != want {
			t.Fatalf("event %d fired=%v, want %v", i, fired[i], want)
		}
	}
}

func TestCancelZeroHandle(t *testing.T) {
	var q Queue
	q.Cancel(Handle{}) // must not panic
}

func TestCancelAfterPop(t *testing.T) {
	var q Queue
	h := q.Schedule(1, func() {})
	e := q.Pop()
	if e.Time != 1 {
		t.Fatal("popped wrong event")
	}
	q.Cancel(h) // canceling a fired event is a no-op
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

// TestCancelRecycledEvent pins the pooling hazard the generation check
// exists for: a stale handle whose Event struct has been recycled for a
// different timer must not cancel the new owner's event.
func TestCancelRecycledEvent(t *testing.T) {
	var q Queue
	stale := q.Schedule(1, func() {})
	q.Free(q.Pop()) // fires and recycles the struct
	fired := false
	fresh := q.Schedule(2, func() { fired = true })
	q.Cancel(stale) // must not touch the recycled event
	if q.Len() != 1 {
		t.Fatalf("stale cancel removed the recycled event (Len = %d)", q.Len())
	}
	if !fresh.Scheduled() {
		t.Fatal("fresh handle lost its event to a stale cancel")
	}
	q.Pop().Fire()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestFreeRecycles(t *testing.T) {
	var q Queue
	q.Schedule(1, func() {})
	e := q.Pop()
	q.Free(e)
	h := q.Schedule(2, func() {})
	if h.e != e {
		t.Fatal("freed event was not recycled by the next schedule")
	}
}

func TestPeekTime(t *testing.T) {
	var q Queue
	q.Schedule(9, func() {})
	q.Schedule(2, func() {})
	q.Schedule(5, func() {})
	if got := q.PeekTime(); got != 2 {
		t.Fatalf("PeekTime = %d, want 2", got)
	}
}

// TestFarEventsCascade pins far-future ordering: times spanning every power
// of 256 up to 2^62, scheduled in shuffled order, still pop in order.
func TestFarEventsCascade(t *testing.T) {
	var q Queue
	times := []int64{0, 1, 255, 256, 257, 65535, 65536, 1 << 20, 1<<40 + 3, 1 << 62, 1<<62 + 1}
	perm := rand.New(rand.NewSource(7)).Perm(len(times))
	for _, i := range perm {
		q.Schedule(times[i], nil)
	}
	for i := 0; q.Len() > 0; i++ {
		if got := q.Pop().Time; got != times[i] {
			t.Fatalf("pop %d = %d, want %d", i, got, times[i])
		}
	}
}

// TestScheduleBelowHorizon pins scheduling into the gap between the last
// pop and the earliest pending event: legal as long as it is not before the
// last pop, even after PeekTime has looked past the gap, and the newcomer
// must fire first.
func TestScheduleBelowHorizon(t *testing.T) {
	var q Queue
	q.Schedule(10, nil)
	far := int64(100_000)
	q.Schedule(far, nil)
	if got := q.Pop().Time; got != 10 {
		t.Fatalf("pop = %d, want 10", got)
	}
	if got := q.PeekTime(); got != far {
		t.Fatalf("PeekTime = %d, want %d", got, far)
	}
	q.Schedule(50, nil) // before the earliest pending event, after the last pop
	q.Schedule(far+1, nil)
	want := []int64{50, far, far + 1}
	for i, w := range want {
		if got := q.Pop().Time; got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
}

func TestScheduleBeforePopPanics(t *testing.T) {
	var q Queue
	q.Schedule(10, nil)
	q.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling before the last pop did not panic")
		}
	}()
	q.Schedule(9, nil)
}

func TestOrderingPropertyRandomized(t *testing.T) {
	// Property: popping always yields non-decreasing times regardless of the
	// interleaving of schedules and cancels.
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var q Queue
		var live []Handle
		now := int64(0)
		for i := 0; i < 500; i++ {
			switch {
			case q.Len() == 0 || r.Intn(3) > 0:
				live = append(live, q.Schedule(now+int64(r.Intn(1000)), func() {}))
			case r.Intn(2) == 0 && len(live) > 0:
				q.Cancel(live[r.Intn(len(live))])
			default:
				e := q.Pop()
				now = e.Time
				q.Free(e)
			}
		}
		last := now
		for q.Len() > 0 {
			e := q.Pop()
			if e.Time < last {
				return false
			}
			last = e.Time
			q.Free(e)
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQueueSteadyStateZeroAlloc pins the pooling contract at this layer:
// once the free list and the heap slice have grown to the working depth,
// schedule/cancel/pop/free cycles allocate nothing.
func TestQueueSteadyStateZeroAlloc(t *testing.T) {
	const depth = 128
	var q Queue
	var handles [depth]Handle
	now := int64(0)
	cycle := func() {
		for i := range handles {
			handles[i] = q.Schedule(now+int64(i*37%64), nil)
		}
		for i := 0; i < depth; i += 3 {
			q.Cancel(handles[i])
		}
		for q.Len() > 0 {
			e := q.Pop()
			now = e.Time
			q.Free(e)
		}
	}
	cycle() // warm-up: grows the pool and the slice to depth
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state schedule/cancel/pop/free cycle allocates %v times, want 0", allocs)
	}
}

func BenchmarkScheduleAndPop(b *testing.B) {
	b.ReportAllocs()
	var q Queue
	r := rand.New(rand.NewSource(1))
	now := int64(0)
	for i := 0; i < b.N; i++ {
		q.Schedule(now+int64(r.Intn(512)), nil)
		if q.Len() > 1024 {
			e := q.Pop()
			now = e.Time
			q.Free(e)
		}
	}
}

// BenchmarkLocalSchedulePop models the kernel's dominant pattern: one event
// a single byte-time ahead of a monotonically advancing clock.
func BenchmarkLocalSchedulePop(b *testing.B) {
	b.ReportAllocs()
	var q Queue
	q.Schedule(0, nil)
	for i := 0; i < b.N; i++ {
		e := q.Pop()
		q.Schedule(e.Time+1, nil)
		q.Free(e)
	}
}

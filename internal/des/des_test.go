package des

import (
	"math/rand"
	"sort"
	"testing"

	"ccredf/internal/timing"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []timing.Time
	times := []timing.Time{50, 10, 30, 20, 40, 10, 0}
	for _, tm := range times {
		s.Post(tm, func(now timing.Time) { got = append(got, now) })
	}
	s.RunAll()
	want := append([]timing.Time(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTiesFireFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Post(100, func(timing.Time) { order = append(order, i) })
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want FIFO", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	// PostAfter counts from the clock, which Run leaves at its horizon even
	// when the queue ran dry before it.
	s := New()
	var fired timing.Time
	s.Post(10, func(timing.Time) {})
	s.Run(40)
	s.PostAfter(5, func(now timing.Time) { fired = now })
	s.RunAll()
	if fired != 45 {
		t.Fatalf("PostAfter fired at %v, want 45", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.Post(10, func(timing.Time) {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.Post(5, func(timing.Time) {})
}

func TestRunHorizonStopsBeforeLaterEvents(t *testing.T) {
	s := New()
	var fired []timing.Time
	for _, tm := range []timing.Time{10, 20, 30, 40} {
		s.Post(tm, func(now timing.Time) { fired = append(fired, now) })
	}
	n := s.Run(25)
	if n != 2 || len(fired) != 2 {
		t.Fatalf("Run(25) executed %d events (%v), want 2", n, fired)
	}
	if s.Now() != 25 {
		t.Fatalf("Now() = %v after Run(25), want 25", s.Now())
	}
	// Events at the horizon fire.
	n = s.Run(30)
	if n != 1 || fired[len(fired)-1] != 30 {
		t.Fatalf("Run(30) executed %d, last fired %v; want the t=30 event", n, fired[len(fired)-1])
	}
}

func TestStep(t *testing.T) {
	s := New()
	count := 0
	s.Post(7, func(timing.Time) { count++ })
	s.Post(5, func(timing.Time) { count++ })
	if !s.Step() || count != 1 || s.Now() != 5 {
		t.Fatalf("first Step: count=%d now=%v", count, s.Now())
	}
	if !s.Step() || count != 2 || s.Now() != 7 {
		t.Fatalf("second Step: count=%d now=%v", count, s.Now())
	}
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestReentrantRunPanics(t *testing.T) {
	s := New()
	s.Post(1, func(timing.Time) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on re-entrant Run")
			}
		}()
		s.Run(10)
	})
	s.RunAll()
}

func TestEventsScheduledDuringRunExecute(t *testing.T) {
	s := New()
	depth := 0
	var schedule func(now timing.Time)
	schedule = func(now timing.Time) {
		depth++
		if depth < 100 {
			s.PostAfter(1, schedule)
		}
	}
	s.Post(0, schedule)
	s.RunAll()
	if depth != 100 {
		t.Fatalf("chained depth = %d, want 100", depth)
	}
	if s.Now() != 99 {
		t.Fatalf("Now() = %v, want 99", s.Now())
	}
}

// TestDeterminism runs the same randomized schedule twice and requires the
// identical execution order.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var order []int
		for i := 0; i < 1000; i++ {
			i := i
			s.Post(timing.Time(rng.Intn(100)), func(timing.Time) { order = append(order, i) })
		}
		s.RunAll()
		return order
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at event %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestHeapStressOrdering(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(7))
	last := timing.Time(-1)
	violations := 0
	for i := 0; i < 5000; i++ {
		s.Post(timing.Time(rng.Intn(10000)), func(now timing.Time) {
			if now < last {
				violations++
			}
			last = now
		})
	}
	s.RunAll()
	if violations != 0 {
		t.Fatalf("%d ordering violations", violations)
	}
	if s.Executed() != 5000 {
		t.Fatalf("Executed() = %d, want 5000", s.Executed())
	}
}

func BenchmarkSchedule(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.Post(timing.Time(i), func(timing.Time) {})
	}
}

func BenchmarkRun(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.Post(timing.Time(i%1024), func(timing.Time) {})
	}
	b.ResetTimer()
	s.RunAll()
}

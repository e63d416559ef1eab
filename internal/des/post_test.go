package des

import (
	"slices"
	"testing"

	"ccredf/internal/timing"
)

func TestPostOrdersWithAt(t *testing.T) {
	// Queued Posts and an inline executor's reserved points interleave by
	// time, whatever order they were scheduled in.
	s := New()
	var got []int
	type point struct {
		when timing.Time
		seq  uint64
		id   int
	}
	late := point{20, s.ReserveSeq(), 2}
	s.Post(10, func(timing.Time) { got = append(got, 1) })
	s.Post(30, func(timing.Time) { got = append(got, 3) })
	early := point{5, s.ReserveSeq(), 0}
	for _, p := range []point{early, late} {
		for s.StepBefore(timing.Forever, p.when, p.seq) {
		}
		s.AdvanceTo(p.when)
		got = append(got, p.id)
	}
	for s.StepUpTo(timing.Forever) {
	}
	want := []int{0, 1, 2, 3}
	if !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestPostTiesFIFOAcrossKinds(t *testing.T) {
	// Queued events and reserved points share one sequence: at equal times
	// a Post made before the reservation runs before the point, one made
	// after it runs after.
	s := New()
	var got []string
	s.Post(10, func(timing.Time) { got = append(got, "before") })
	point := s.ReserveSeq()
	s.Post(10, func(timing.Time) { got = append(got, "after") })
	for s.StepBefore(10, 10, point) {
	}
	got = append(got, "point")
	for s.StepUpTo(10) {
	}
	want := []string{"before", "point", "after"}
	if !slices.Equal(got, want) {
		t.Fatalf("tie order = %v, want %v", got, want)
	}
}

func TestPostAfterSchedulesRelative(t *testing.T) {
	s := New()
	var fired timing.Time
	s.Post(100, func(timing.Time) {
		s.PostAfter(50, func(now timing.Time) { fired = now })
	})
	s.RunAll()
	if fired != 150 {
		t.Fatalf("PostAfter fired at %v, want 150", fired)
	}
}

func TestPostInPastPanics(t *testing.T) {
	s := New()
	s.Post(100, func(timing.Time) {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("Post in the past did not panic")
		}
	}()
	s.Post(50, func(timing.Time) {})
}

func TestPostRecyclesEvents(t *testing.T) {
	// A self-rescheduling Post chain must reuse one pooled Event: the slot is
	// recycled before the handler runs, so the handler's own Post takes it.
	s := New()
	n := 0
	var tick Handler
	tick = func(timing.Time) {
		n++
		if n < 1000 {
			s.PostAfter(1, tick)
		}
	}
	s.Post(0, tick)
	s.RunAll()
	if n != 1000 {
		t.Fatalf("executed %d events, want 1000", n)
	}
	if len(s.free) != 1 {
		t.Fatalf("free list holds %d events, want 1 (one slot recycled forever)", len(s.free))
	}
}

func TestPostInterleavedDeterminism(t *testing.T) {
	// Two identical schedules mixing ties, reserved sequence numbers and
	// Posts made by running handlers must execute in the identical order —
	// the reproducibility contract of the kernel.
	run := func() []int {
		s := New()
		var got []int
		rec := func(v int) Handler { return func(timing.Time) { got = append(got, v) } }
		s.Post(10, rec(0))
		s.ReserveSeq()
		s.Post(10, rec(1))
		s.Post(5, func(timing.Time) { s.PostAfter(5, rec(2)) })
		s.RunAll()
		return got
	}
	a, b := run(), run()
	if !slices.Equal(a, b) || !slices.Equal(a, []int{0, 1, 2}) {
		t.Fatalf("runs differ or misorder: %v vs %v", a, b)
	}
}

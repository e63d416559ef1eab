package des

import (
	"reflect"
	"testing"

	"ccredf/internal/timing"
)

// TestInlineReservationMatchesEventDriven runs the same mixed schedule twice:
// once fully event-driven, once with the "engine" events executed inline
// through ReserveSeq/StepBefore/AdvanceTo. The observed execution orders and
// final clocks must match exactly — this is the equivalence the network's
// inline slot executor is built on.
func TestInlineReservationMatchesEventDriven(t *testing.T) {
	type point struct {
		when timing.Time
		seq  uint64
		name string
	}

	// Event-driven reference: engine events are ordinary Posts.
	var ref []string
	refSim := New()
	post := func(s *Simulator, at timing.Time, name string, log *[]string) {
		s.Post(at, func(timing.Time) { *log = append(*log, name) })
	}
	// External events straddling the engine times, including exact ties:
	// a tie scheduled before the engine event wins, one after loses.
	post(refSim, 5, "ext-before-tie", &ref)
	post(refSim, 10, "engine-a", &ref)
	post(refSim, 20, "engine-b", &ref)
	post(refSim, 5, "ext-early", &ref)
	post(refSim, 10, "ext-tie-after", &ref)
	post(refSim, 15, "ext-mid", &ref)
	post(refSim, 25, "ext-late", &ref)
	refSim.Run(30)

	// Inline run: the engine events reserve their seqs at the same position
	// in the scheduling order and are executed by hand.
	var got []string
	sim := New()
	post(sim, 5, "ext-before-tie", &got)
	pts := []point{
		{when: 10, seq: sim.ReserveSeq(), name: "engine-a"},
		{when: 20, seq: sim.ReserveSeq(), name: "engine-b"},
	}
	post(sim, 5, "ext-early", &got)
	post(sim, 10, "ext-tie-after", &got)
	post(sim, 15, "ext-mid", &got)
	post(sim, 25, "ext-late", &got)
	const horizon = timing.Time(30)
	for _, pt := range pts {
		for sim.StepBefore(horizon, pt.when, pt.seq) {
		}
		sim.AdvanceTo(pt.when)
		got = append(got, pt.name)
	}
	for sim.StepUpTo(horizon) {
	}
	sim.AdvanceTo(horizon)

	if !reflect.DeepEqual(ref, got) {
		t.Errorf("execution order diverged:\n event-driven: %v\n inline:       %v", ref, got)
	}
	if refSim.Now() != sim.Now() {
		t.Errorf("clocks diverged: event-driven %v, inline %v", refSim.Now(), sim.Now())
	}
}

// TestStepBeforeHorizon pins that StepBefore refuses events beyond the
// horizon even when they are ordered before the reserved point.
func TestStepBeforeHorizon(t *testing.T) {
	sim := New()
	fired := false
	sim.Post(50, func(timing.Time) { fired = true })
	if sim.StepBefore(40, 60, 0) {
		t.Fatal("StepBefore executed an event beyond the horizon")
	}
	if fired {
		t.Fatal("event fired early")
	}
	if !sim.StepBefore(60, 60, 0) {
		t.Fatal("StepBefore refused an in-horizon event ordered before the point")
	}
	if !fired {
		t.Fatal("event did not fire")
	}
}

// TestStepUpToFiresAtHorizon pins Run's inclusive-horizon semantics.
func TestStepUpToFiresAtHorizon(t *testing.T) {
	sim := New()
	fired := false
	sim.Post(30, func(timing.Time) { fired = true })
	if !sim.StepUpTo(30) {
		t.Fatal("StepUpTo skipped an event exactly at the horizon")
	}
	if !fired {
		t.Fatal("event did not fire")
	}
	if sim.StepUpTo(30) {
		t.Fatal("StepUpTo executed on an empty queue")
	}
}

// TestAdvanceToNeverMovesBackwards pins the clamp.
func TestAdvanceToNeverMovesBackwards(t *testing.T) {
	sim := New()
	sim.AdvanceTo(100)
	if sim.Now() != 100 {
		t.Fatalf("AdvanceTo(100): now = %v", sim.Now())
	}
	sim.AdvanceTo(50)
	if sim.Now() != 100 {
		t.Fatalf("AdvanceTo backwards moved the clock: now = %v", sim.Now())
	}
	sim.AdvanceTo(timing.Forever)
	if sim.Now() != 100 {
		t.Fatalf("AdvanceTo(Forever) moved the clock: now = %v", sim.Now())
	}
}

// TestAheadOrdersAgainstTheRunningStep pins Ahead against every way a step
// starts running: an inline point entered with Enter, a fired event, and a
// suspension with AdvanceTo, after which every step due by the clock has run.
func TestAheadOrdersAgainstTheRunningStep(t *testing.T) {
	sim := New()
	first, second := sim.ReserveSeq(), sim.ReserveSeq()
	sim.Enter(40, first)
	for _, c := range []struct {
		when timing.Time
		seq  uint64
		want bool
	}{{39, second, false}, {40, first, false}, {40, second, true}, {41, first, true}} {
		if got := sim.Ahead(c.when, c.seq); got != c.want {
			t.Errorf("entered (40, %d): Ahead(%v, %d) = %v, want %v", first, c.when, c.seq, got, c.want)
		}
	}
	var during, after bool
	sim.Post(50, func(timing.Time) { during, after = sim.Ahead(50, second), sim.Ahead(50, sim.ReserveSeq()) })
	sim.StepUpTo(50)
	if during || !after {
		t.Errorf("firing an event at 50: Ahead of an earlier reservation = %v, of a later one = %v", during, after)
	}
	sim.AdvanceTo(50)
	if sim.Ahead(50, sim.ReserveSeq()) || !sim.Ahead(51, first) {
		t.Error("after AdvanceTo(50): a step at 50 is still ahead, or one at 51 is not")
	}
}

package sched

import (
	"fmt"
	"testing"

	"ccredf/internal/rng"
	"ccredf/internal/timing"
)

// TestPriorityUntilExact checks PriorityUntil against MapPriority: the
// priority is the same at every probed instant of [now, until) and, when
// until is finite, differs at until. Deadlines sit on each band edge
// 2^k−1 slots ahead (and one tick either side of it), at and beyond the
// saturated band k = 14, behind now, negative and unbounded, for every
// class and for slot lengths of 1, the default slot time and an odd value.
func TestPriorityUntilExact(t *testing.T) {
	slots := []timing.Time{1, timing.DefaultParams(8).SlotTime(), 7919}
	classes := []Class{ClassNone, ClassNonRealTime, ClassBestEffort, ClassRealTime}
	src := rng.New(21)
	prio := func(c Class, deadline, at, slot timing.Time) uint8 {
		lax := timing.Time(timing.Forever)
		if deadline != timing.Forever {
			lax = deadline - at
		}
		return MapPriority(c, lax, slot)
	}
	for _, slot := range slots {
		for _, now := range []timing.Time{0, 12345, -3 * slot} {
			var deadlines []timing.Time
			for k := 0; k <= 16; k++ {
				edge := now + (1<<k-1)*slot
				deadlines = append(deadlines, edge-1, edge, edge+1)
			}
			deadlines = append(deadlines, now-1, now-slot, -1, -5*slot, now, timing.Forever)
			for _, deadline := range deadlines {
				for _, c := range classes {
					what := fmt.Sprintf("class %v slot %d now %d deadline %d", c, slot, now, deadline)
					until := PriorityUntil(c, deadline, now, slot)
					if until <= now {
						t.Fatalf("%s: until %d not after now", what, until)
					}
					p := prio(c, deadline, now, slot)
					last := until - 1
					if until == timing.Forever {
						// Probe far beyond any band edge instead.
						last = now + (1<<20)*slot
					}
					probes := []timing.Time{now, last}
					for i := 0; i < 16; i++ {
						probes = append(probes, now+timing.Time(src.Uint64()%uint64(last-now+1)))
					}
					for _, at := range probes {
						if got := prio(c, deadline, at, slot); got != p {
							t.Fatalf("%s: priority %d at now but %d at %d (until %d)", what, p, got, at, until)
						}
					}
					if until != timing.Forever && prio(c, deadline, until, slot) == p {
						t.Fatalf("%s: priority %d unchanged at until %d", what, p, until)
					}
				}
			}
		}
	}
}
